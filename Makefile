# Convenience targets for the Stellar reproduction.

PYTHON ?= python

.PHONY: install test lint simlint simlint-json simlint-sarif bench bench-smoke figures-check hybrid-smoke determinism-smoke figures figures-smoke traces traces-smoke tour examples all clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	pytest tests/

# Ruff when available (CI installs it); syntax-only fallback otherwise so
# the target stays usable in the dependency-frozen container.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; running syntax-only fallback (pip install ruff for the full lint)"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi

# Determinism & layering linter (README "Static analysis: simlint").
# Pure-stdlib ast, so unlike ruff it needs no fallback and always runs,
# even in the dependency-frozen container.  Whole-program since v2: the
# per-file rules plus call-graph taint propagation (D-taskpure-deep,
# D-sim-pure) and the export audit (L-api-drift), behind an incremental
# cache (.simlint_cache.json) so warm runs re-parse nothing.
simlint:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro.lint

simlint-json:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro.lint --format=json

# CI uploads this as a workflow artifact; any SARIF 2.1.0 consumer
# (GitHub code scanning, IDE viewers) can ingest it.
simlint-sarif:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro.lint --format=sarif \
		--output simlint.sarif

bench:
	pytest benchmarks/ --benchmark-only -s

# Fast seeded subset for CI: the 16-host fleet churn scenario plus the
# Fig. 6 and Fig. 11 benchmarks with REPRO_BENCH_SMOKE trimming the
# Fig. 11 measurement window (assertions unchanged).  The table mirror
# goes to a scratch file so a partial run never truncates the full
# benchmark_tables.txt artifact.
bench-smoke:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro fleet
	REPRO_BENCH_SMOKE=1 REPRO_TABLES_FILE=/tmp/repro_bench_smoke_tables.txt \
		PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_fig06_startup.py benchmarks/test_fig11_link_failure.py \
		--benchmark-only -s

# Every paper figure at full size, then a diff of the table mirror
# against the checked-in benchmark_tables.txt: a change that moves any
# figure value (or any table title) fails here.
figures-check:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q
	git diff --exit-code benchmark_tables.txt

# Hybrid-fidelity determinism cells (churn scenario priced by the
# fidelity controller): two seeds, repeat pairs, every pooled row diffed
# against a sequential re-run.  Promoted packet windows must reproduce
# digest-for-digest like fluid epochs do.
hybrid-smoke:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro run hybrid-smoke \
		--workers 2 --no-cache --check-sequential

# The probe and fleet smoke/churn determinism cells (two seeds, repeat
# pairs; hybrid-smoke covers the hybrid cells), every pooled row diffed
# against a sequential re-run: traced runs go through the same scheduler
# loop as untraced ones, so each cell must reproduce digest-for-digest
# across processes.
determinism-smoke:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro run determinism \
		--workers 2 --no-cache --check-sequential

# Full figure sweeps through the parallel runner (repro.runner): every
# sweep point is a cached TaskSpec, so re-running after a code change
# only recomputes what the change touched (cache under .repro_cache/).
# Extra flags via RUN_ARGS, e.g. make figures RUN_ARGS="--refresh".
figures:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro run figures $(RUN_ARGS)

# CI-sized pooled subset: 2 workers, cache off, and every pooled row
# diffed byte-for-byte against a sequential re-run (the determinism
# invariant the runner must preserve).
figures-smoke:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro run figures-smoke \
		--workers 2 --no-cache --check-sequential

# Trace-driven workloads (repro.traces): replay every bundled trace
# twice through the pooled runner (repeat pairs diffed by the suite
# check) plus one record→replay round trip.
traces:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro run --suite traces \
		$(RUN_ARGS)

# CI-sized trace pass: shape/DAG-validate the bundled library, then
# replay the smallest bundled trace pooled-vs-sequential (same
# determinism invariant as figures-smoke).
traces-smoke:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro trace validate
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro run --suite traces-smoke \
		--workers 2 --no-cache --check-sequential

tour:
	$(PYTHON) -m repro

# Run every example; stop at the first one that fails.
examples:
	@for ex in examples/*.py; do \
		echo "== $$ex =="; \
		PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) $$ex || exit 1; \
	done

all: test bench

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +

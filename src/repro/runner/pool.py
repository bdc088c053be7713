"""Process-parallel task execution with deterministic result merging.

``run_tasks`` is the one entry point: it digests every
:class:`~repro.runner.spec.TaskSpec`, satisfies what it can from the
content-addressed cache, fans the misses out over a ``multiprocessing``
pool, and merges everything back **in spec order** — never completion
order — so a pooled run is indistinguishable from a sequential one.

Worker-side telemetry is per-task: before a task body runs (in a worker
*or* inline), a fresh :class:`~repro.obs.metrics.MetricsRegistry` is
installed as the process default and its snapshot is captured afterwards
and returned to the parent.  Pooled tasks therefore never interleave
counters — two tasks that each bump ``task.calls`` once both report 1,
regardless of which worker process they landed on — and the parent's own
default registry is never touched.

Wall-clock reads in this module time the *runner* (per-task seconds for
the report table), never simulated state; simlint sanctions exactly this
module for it, the way it sanctions ``repro.obs``.
"""

import multiprocessing
import os
import sys
import time
from collections import OrderedDict

from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.runner.spec import TaskSpec, normalize_result, resolve_callable


def default_workers():
    """Worker count when the caller does not choose: capped at 4."""
    return min(4, os.cpu_count() or 1)


class TaskResult:
    """One task's outcome: normalized value + provenance."""

    __slots__ = ("key", "value", "digest", "cached", "seconds", "telemetry")

    def __init__(self, key, value, digest, cached, seconds, telemetry):
        self.key = key
        self.value = value
        self.digest = digest
        #: True when the value came from the result cache, not a compute.
        self.cached = cached
        #: Worker-side wall seconds of the task body (0.0 for cache hits).
        self.seconds = seconds
        #: Flat metrics snapshot of the task's private default registry.
        self.telemetry = telemetry

    def to_json(self):
        return {
            "key": self.key,
            "digest": self.digest,
            "cached": self.cached,
            "seconds": round(self.seconds, 6),
            "value": self.value,
        }

    def __repr__(self):
        return "TaskResult(%r, cached=%s, %.3fs)" % (
            self.key, self.cached, self.seconds,
        )


class RunReport:
    """Ordered results of one batch plus cache/pool bookkeeping."""

    def __init__(self, results, workers, cache_stats, wall_seconds):
        #: ``OrderedDict key -> TaskResult`` in *spec* order.
        self.results = results
        self.workers = workers
        self.cache_stats = cache_stats
        self.wall_seconds = wall_seconds

    def __len__(self):
        return len(self.results)

    def __getitem__(self, key):
        return self.results[key]

    def values(self):
        """Task values in spec order."""
        return [result.value for result in self.results.values()]

    def rows(self):
        """``[(key, value), ...]`` in spec order — the figure series."""
        return [(key, result.value) for key, result in self.results.items()]

    @property
    def computed(self):
        return sum(1 for r in self.results.values() if not r.cached)

    @property
    def hits(self):
        return sum(1 for r in self.results.values() if r.cached)

    def merged_telemetry(self):
        """Sum of numeric telemetry leaves across tasks (parent-side merge)."""
        merged = {}
        for result in self.results.values():
            for name, value in (result.telemetry or {}).items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                merged[name] = merged.get(name, 0) + value
        return dict(sorted(merged.items()))

    def to_json(self):
        return {
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 6),
            "cache": self.cache_stats,
            "tasks": [result.to_json() for result in self.results.values()],
        }

    def __repr__(self):
        return "RunReport(%d tasks, %d cached, workers=%d)" % (
            len(self.results), self.hits, self.workers,
        )


def _execute_spec_isolated(key, fn_path, kwargs, seed):
    """Run one task body under a fresh process-default registry.

    Returns ``(value, seconds, telemetry)``.  Shared by the pool workers
    and the sequential path so both have identical isolation semantics.
    """
    spec = TaskSpec(key, fn_path, kwargs, seed=seed)
    previous = set_registry(MetricsRegistry("runner:%s" % key))
    try:
        start = time.perf_counter()
        value = normalize_result(resolve_callable(spec.fn)(**spec.call_kwargs()))
        seconds = time.perf_counter() - start
        telemetry = get_registry().snapshot()
    finally:
        set_registry(previous)
    return value, seconds, telemetry


def _worker_init(path_entries):
    """Make the parent's import roots visible under any start method."""
    for entry in reversed(path_entries):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _worker_run(payload):
    index, key, fn_path, kwargs, seed = payload
    value, seconds, telemetry = _execute_spec_isolated(key, fn_path, kwargs, seed)
    return index, value, seconds, telemetry


def _pool_context():
    """Prefer fork (cheap, Linux); fall back to spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def run_tasks(specs, workers=None, cache=None, refresh=False):
    """Execute ``specs``; return a :class:`RunReport` merged in spec order.

    * ``workers``: ``None`` picks :func:`default_workers`; ``0``/``1``
      runs inline (sequential), still with per-task telemetry isolation.
    * ``cache``: a :class:`~repro.runner.cache.ResultCache` or ``None``
      (no caching).
    * ``refresh``: recompute every task and overwrite cache entries
      (``--refresh``); ``cache=None`` is ``--no-cache``.
    """
    specs = list(specs)
    seen = set()
    for spec in specs:
        if spec.key in seen:
            raise ValueError("duplicate task key %r in batch" % spec.key)
        seen.add(spec.key)
    if workers is None:
        workers = default_workers()

    started = time.perf_counter()
    memo = {}
    digests = [spec.digest(memo=memo) for spec in specs]

    slots = [None] * len(specs)  # index -> TaskResult
    pending = []                 # (index, spec, digest) to compute
    for index, (spec, digest) in enumerate(zip(specs, digests)):
        if cache is not None and not refresh:
            hit, value = cache.load(digest)
            if hit:
                slots[index] = TaskResult(
                    spec.key, value, digest, True, 0.0, {},
                )
                continue
        pending.append((index, spec, digest))

    if pending:
        payloads = [
            (index, spec.key, spec.fn, spec.kwargs, spec.seed)
            for index, spec, _ in pending
        ]
        if workers > 1 and len(payloads) > 1:
            context = _pool_context()
            pool_size = min(workers, len(payloads))
            with context.Pool(
                pool_size, initializer=_worker_init, initargs=(list(sys.path),),
            ) as pool:
                outcomes = pool.imap_unordered(_worker_run, payloads, chunksize=1)
                for index, value, seconds, telemetry in outcomes:
                    spec, digest = _find_pending(pending, index)
                    slots[index] = TaskResult(
                        spec.key, value, digest, False, seconds, telemetry,
                    )
        else:
            for index, spec, digest in pending:
                value, seconds, telemetry = _execute_spec_isolated(
                    spec.key, spec.fn, spec.kwargs, spec.seed,
                )
                slots[index] = TaskResult(
                    spec.key, value, digest, False, seconds, telemetry,
                )
        if cache is not None:
            for index, spec, digest in pending:
                cache.store(digest, slots[index].value, spec=spec)

    results = OrderedDict((result.key, result) for result in slots)
    return RunReport(
        results,
        workers,
        cache.stats.snapshot() if cache is not None else None,
        time.perf_counter() - started,
    )


def _find_pending(pending, index):
    for pending_index, spec, digest in pending:
        if pending_index == index:
            return spec, digest
    raise KeyError("worker returned unknown task index %d" % index)

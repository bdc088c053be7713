"""Parallel experiment runner with content-addressed result caching.

The repo's sweeps — figure series, multi-seed determinism checks, trace
replays — are dozens of fully independent seeded runs.  This
package expresses each as a pure, picklable :class:`TaskSpec`, executes
batches across a ``multiprocessing`` pool with deterministic merge order
(:func:`run_tasks`), and backs them with an on-disk content-addressed
:class:`ResultCache` keyed by a digest of module source + spec + seed, so
re-running figures only recomputes what changed.

Invariant inherited from PR 2/PR 4: pooled and sequential execution
produce bit-identical per-task results.  Workers run each task under a
fresh telemetry registry (snapshots merged by the parent), tasks are
audited for purity by simlint's ``D-taskpure`` rule, and the determinism
digests of ``repro.obs.determinism`` are the acceptance oracle.

Entry points: ``python -m repro run <suite>``, ``make figures``, and the
benchmark suite's shared conftest backend.
"""

from repro.runner.cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from repro.runner.pool import (
    RunReport,
    TaskResult,
    default_workers,
    run_tasks,
)
from repro.runner.spec import (
    TaskError,
    TaskSpec,
    canonical_json,
    normalize_result,
    registered_tasks,
    resolve_callable,
    task,
)
from repro.runner.suites import SUITES, Suite

__all__ = [
    "CACHE_DIR_ENV",
    "ResultCache",
    "default_cache_dir",
    "RunReport",
    "TaskResult",
    "default_workers",
    "run_tasks",
    "TaskError",
    "TaskSpec",
    "canonical_json",
    "normalize_result",
    "registered_tasks",
    "resolve_callable",
    "task",
    "SUITES",
    "Suite",
]

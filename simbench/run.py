"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 simbench/run.py --workload fleet_fluid --seed 1 --seconds 15 --trace 0
    python3 simbench/run.py --workload spray_permutation --seed 1 --trace 1
    python3 simbench/run.py --workload all --seed 1

Each run builds the simulator from ``src/`` in one process (numerical
libraries pinned to one thread), then repeats set-up + simulation at the
given seed until ``--seconds`` have passed (at least ``MIN_SAMPLES``
times).  Every repeat's simulated outputs are checked and digested; all
repeats of a run must produce the same digest.

Other tenants of a shared host slow the simulator by up to 2x for
stretches of seconds to minutes, so host times are scaled by a fixed
reference kernel (``reference``) timed alongside them: once before and
once after every set-up, and between the slices of every simulation
(see ``workloads``) after each ``REFERENCE_EVERY`` seconds of slices.
A repeat's scaled wall time is its host seconds divided by the mean of
its reference times, times ``REFERENCE_SECONDS``; a set-up's likewise.
``wall_s`` and ``setup_s`` are the medians of the scaled times, and the
table prints their quartiles and the unscaled medians too.

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` stops the untraced repeats early enough
to fit one traced repeat in ``--seconds``, with spans around the public
calls of every layer, and reports the per-layer metrics instead.  Spans
are written to ``.simbench/`` under the current directory.  The last
line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics: ``(name, unit)``.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: Timed repeats per run, at least.
MIN_SAMPLES = 3
#: Set-ups per run, at least.
MIN_SETUPS = 10
#: Seconds of simulation slices between two reference timings.
REFERENCE_EVERY = 0.02
SPAN_DIR = ".simbench"


def bootstrap():
    """Pin numerical libraries to one thread and put ``src/`` and the
    benchmark package on the import path.  Returns False if the
    simulator's sources are missing."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        import repro
    except ImportError as exc:
        print("simbench: cannot import the simulator from %s: %s"
              % (ROOT / "src", exc), file=sys.stderr)
        return False
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        # An installed copy elsewhere would be measured instead of this tree.
        print("simbench: imported the simulator from %s, not from %s"
              % (repro.__file__, ROOT / "src"), file=sys.stderr)
        return False
    return True


def digest_of(outputs):
    text = json.dumps(outputs, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def quartiles(values):
    """``(p25, median, p75)`` as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    p25, p50, p75 = statistics.quantiles(values, n=4)
    return p25, statistics.median(values), p75


def scaled(seconds, references):
    """``seconds`` in units of the mean reference time, as seconds at the
    reference kernel's nominal speed."""
    from simbench.reference import REFERENCE_SECONDS

    return seconds / statistics.mean(references) * REFERENCE_SECONDS


class Run:
    """Repeats of one workload at one seed, with their timings."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.setups = []
        self.walls = []
        self.scaled_setups = []
        self.scaled_walls = []
        self.attempted = 0
        self.failed = 0
        self.first_digest = None
        self.last_outputs = None

    def setup(self):
        """Returns the state, the set-up's host seconds and its scaled
        time."""
        from simbench.reference import reference_seconds

        gc.collect()
        before = reference_seconds()
        start = time.perf_counter()
        state = self.workload.setup(self.seed)
        setup_s = time.perf_counter() - start
        return state, setup_s, scaled(setup_s, [before, reference_seconds()])

    def simulate(self, state):
        """Runs the workload's slices; returns the host seconds spent in
        them and its scaled time."""
        from simbench.reference import reference_seconds

        wall_s = since = 0.0
        references = []
        slices = self.workload.run(state)
        while True:
            start = time.perf_counter()
            try:
                next(slices)
            except StopIteration:
                wall_s += time.perf_counter() - start
                break
            elapsed = time.perf_counter() - start
            wall_s += elapsed
            since += elapsed
            if since >= REFERENCE_EVERY:
                references.append(reference_seconds())
                since = 0.0
        references.append(reference_seconds())
        return wall_s, scaled(wall_s, references)

    def attempt(self, instrumentation=None):
        """One set-up + timed run + checks.  Returns the run's wall
        seconds, or None if the repeat failed."""
        self.attempted += 1
        try:
            state, setup_s, scaled_setup = self.setup()
            gc.collect()
            with contextlib.ExitStack() as stack:
                if instrumentation is not None:
                    instrumentation.install(stack)
                wall_s, scaled_wall = self.simulate(state)
            outputs = self.workload.outputs(state)
            problems = self.workload.check(outputs)
            digest = digest_of(outputs)
        except Exception:  # a failing repeat is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("simulated-output digest %s differs from the "
                            "first repeat's %s" % (digest[:12], self.first_digest[:12]))
        if problems:
            print("simbench: %s seed %d repeat %d failed: %s" % (
                self.workload.name, self.seed, self.attempted,
                "; ".join(problems)), file=sys.stderr)
            self.failed += 1
            return None
        self.last_outputs = outputs
        if instrumentation is None:
            self.setups.append(setup_s)
            self.walls.append(wall_s)
            self.scaled_setups.append(scaled_setup)
            self.scaled_walls.append(scaled_wall)
        return wall_s

    def measure(self, seconds, spare=0):
        """Untraced repeats until ``seconds`` are used up, less room for
        ``spare`` more repeats (the traced one) after them."""
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if self.attempted >= MIN_SAMPLES:
                per_attempt = elapsed / self.attempted
                if elapsed + per_attempt * (1 + spare) > seconds:
                    break
            self.attempt()
        while self.walls and len(self.setups) < MIN_SETUPS:
            _, setup_s, scaled_setup = self.setup()
            self.setups.append(setup_s)
            self.scaled_setups.append(scaled_setup)

    @property
    def correct(self):
        return self.failed == 0 and self.attempted > 0


def end_to_end(run):
    if not run.walls:
        return {}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": statistics.median(run.scaled_walls),
        "setup_s": statistics.median(run.scaled_setups),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def print_end_to_end(run, metrics):
    """The human-readable table: median, quartiles and sample count of
    the scaled times, and the median of the unscaled ones."""
    print("== %s  seed %d" % (run.workload.name, run.seed))
    print("%-12s %12s %-6s %12s %12s %4s %14s" % (
        "metric", "median", "unit", "p25", "p75", "n", "unscaled med"))
    series = {"wall_s": (run.scaled_walls, run.walls),
              "setup_s": (run.scaled_setups, run.setups)}
    for name, unit in END_TO_END:
        if name in metrics:
            values, unscaled = series.get(name, ([metrics[name]["value"]],) * 2)
            p25, p50, p75 = quartiles(values)
            print("%-12s %12.6f %-6s %12.6f %12.6f %4d %14.6f" % (
                name, p50, unit, p25, p75, len(values),
                statistics.median(unscaled)))
    print("%-12s %12.6f %-6s %12s %12s %4d" % (
        "error_rate", run.failed / max(1, run.attempted), "ratio", "", "",
        run.attempted))


def traced(run):
    """One traced repeat; returns the per-layer metrics (or {})."""
    from simbench.layers import SELF_TIMES, UNITS, Instrumentation
    from simbench.tracing import SpanRecorder

    recorder = SpanRecorder(run_id="%s-seed%d" % (run.workload.name, run.seed))
    instrumentation = Instrumentation(recorder)
    traced_wall = run.attempt(instrumentation)
    if traced_wall is None or not run.walls:
        return {}
    values = instrumentation.metrics(
        traced_wall, statistics.median(run.walls),
        run.workload.facts(run.last_outputs),
    )
    os.makedirs(SPAN_DIR, exist_ok=True)
    with open(os.path.join(SPAN_DIR, recorder.run_id + ".json"), "w") as handle:
        json.dump(recorder.dump(), handle)
    print("== %s  seed %d  per-layer (traced repeat, %d spans)" % (
        run.workload.name, run.seed, len(recorder.spans)))
    for name, value in values.items():
        print("%-26s %16.6f %s" % (name, value, UNITS[name]))
    self_total = sum(values[name] for name in SELF_TIMES)
    print("self times sum to %.6f s of %.6f s traced wall" % (self_total, traced_wall))
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()}


def run_all(args):
    """Every workload, each in its own process, one table after another."""
    from simbench.workloads import WORKLOADS

    all_correct = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, universal_newlines=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        all_correct = (all_correct and proc.returncode == 0 and bool(lines)
                       and json.loads(lines[-1])["correct"])
    return 0 if all_correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap():
        return 2
    from simbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s, all)"
                     % (args.workload, ", ".join(WORKLOADS)))
    run = Run(WORKLOADS[args.workload], args.seed)
    run.measure(args.seconds, spare=args.trace)
    if args.trace:
        metrics = traced(run)
    else:
        metrics = end_to_end(run)
        print_end_to_end(run, metrics)
    print(json.dumps({
        "correct": run.correct and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

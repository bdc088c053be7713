"""Double-run determinism harness: prove a seeded run reproduces itself.

The contract every figure in EXPERIMENTS.md rests on: two runs with the
same seed produce byte-identical telemetry.  This module executes the
full-stack probe (:func:`repro.obs.probe.run_probe`) twice with fresh
registries/tracers and diffs

* the **flattened metrics snapshot** (every counter across rnic / pcie /
  pvdma / mem / net / scheduler families), and
* the **trace-event digest** — SHA-256 over the canonicalized Chrome
  trace JSON.

The ``dur`` of scheduler-callback spans (always zero) stays out of the
hash, so digests remain comparable with earlier versions.  Everything
else must match exactly; :func:`check_determinism` reports the first
mismatching keys when it does not.

CI gates on this via ``tests/test_determinism.py``.
"""

import hashlib
import json

#: Mismatching metric keys a determinism report lists before it stops.
_MAX_MISMATCHES = 10


def canonical_trace_events(tracer):
    """The tracer's Chrome records, callback spans without their ``dur``.

    Callback events keep their sim timestamp and name — the *schedule*
    must reproduce.
    """
    events = []
    for record in tracer.to_chrome()["traceEvents"]:
        if record.get("cat") == "callback":
            record.pop("dur", None)  # to_chrome() builds fresh dicts
        events.append(record)
    return events


def trace_digest(tracer):
    """SHA-256 hex digest of the canonicalized trace-event stream."""
    payload = json.dumps(
        canonical_trace_events(tracer), sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def snapshot_digest(snapshot):
    """SHA-256 hex digest of a flat metrics snapshot."""
    payload = json.dumps(
        snapshot, sort_keys=True, separators=(",", ":"), default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# Result type: consumers receive instances from run_probe() and
# duck-type them; the class name is intentionally not re-exported.
class ProbeFingerprint:  # simlint: ok L-api-drift
    """Everything one probe run pins down for the determinism diff."""

    __slots__ = ("seed", "metrics", "metrics_digest", "trace_digest",
                 "trace_events", "flight_digest")

    def __init__(self, seed, metrics, metrics_digest, trace_digest,
                 trace_events, flight_digest=None):
        self.seed = seed
        self.metrics = metrics
        self.metrics_digest = metrics_digest
        self.trace_digest = trace_digest
        self.trace_events = trace_events
        self.flight_digest = flight_digest

    def __repr__(self):
        return "ProbeFingerprint(seed=%d, %d metrics, trace=%s...)" % (
            self.seed, len(self.metrics), self.trace_digest[:12],
        )


def probe_fingerprint(seed=17, **probe_kwargs):
    """Run the full-stack probe once in isolation; return its fingerprint.

    Fresh registry and tracer per call, so repeated calls never share
    state through the process-wide defaults.
    """
    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.probe import run_probe
    from repro.obs.trace import Tracer

    registry = MetricsRegistry("determinism-probe")
    tracer = Tracer("determinism-probe")
    flight = FlightRecorder()
    result = run_probe(registry=registry, tracer=tracer, seed=seed,
                       flight=flight, **probe_kwargs)
    metrics = result.registry.snapshot()
    return ProbeFingerprint(
        seed=seed,
        metrics=metrics,
        metrics_digest=snapshot_digest(metrics),
        trace_digest=trace_digest(result.tracer),
        trace_events=len(result.tracer),
        flight_digest=flight.digest(),
    )


class DeterminismReport:
    """Outcome of an N-run determinism check."""

    __slots__ = ("fingerprints", "metric_mismatches", "trace_match",
                 "flight_match")

    def __init__(self, fingerprints, metric_mismatches, trace_match,
                 flight_match=True):
        self.fingerprints = fingerprints
        self.metric_mismatches = metric_mismatches
        self.trace_match = trace_match
        self.flight_match = flight_match

    @property
    def ok(self):
        return (not self.metric_mismatches and self.trace_match
                and self.flight_match)

    def describe(self):
        if self.ok:
            return ("deterministic: %d run(s), %d metrics, trace %s"
                    % (len(self.fingerprints),
                       len(self.fingerprints[0].metrics),
                       self.fingerprints[0].trace_digest[:12]))
        lines = []
        if not self.trace_match:
            lines.append("trace digests differ: %s" % ", ".join(
                fp.trace_digest[:12] for fp in self.fingerprints))
        if not self.flight_match:
            lines.append("flight-log digests differ: %s" % ", ".join(
                str(fp.flight_digest)[:12] for fp in self.fingerprints))
        for key, values in self.metric_mismatches:
            lines.append("metric %s differs across runs: %r" % (key, values))
        return "; ".join(lines)

    def __repr__(self):
        return "DeterminismReport(ok=%s, runs=%d)" % (
            self.ok, len(self.fingerprints),
        )


def _diff_fingerprints(fingerprints):
    """Diff N same-seed fingerprints into a :class:`DeterminismReport`."""
    reference = fingerprints[0]
    mismatches = []
    all_keys = []
    seen = set()
    for fp in fingerprints:
        for key in fp.metrics:
            if key not in seen:
                seen.add(key)
                all_keys.append(key)
    for key in all_keys:
        values = [fp.metrics.get(key) for fp in fingerprints]
        if any(value != values[0] for value in values[1:]):
            mismatches.append((key, values))
            if len(mismatches) >= _MAX_MISMATCHES:
                break
    trace_match = all(
        fp.trace_digest == reference.trace_digest for fp in fingerprints
    )
    flight_match = all(
        fp.flight_digest == reference.flight_digest for fp in fingerprints
    )
    return DeterminismReport(fingerprints, mismatches, trace_match,
                             flight_match)


def check_determinism(seed=17, runs=2, **probe_kwargs):
    """Run the seeded probe ``runs`` times and diff the fingerprints.

    Returns a :class:`DeterminismReport`; ``report.ok`` is the CI gate.
    Mismatching metric keys (up to ten) are listed with
    their per-run values so a regression points straight at the counter
    family that diverged.
    """
    if runs < 2:
        raise ValueError("determinism needs at least 2 runs, got %d" % runs)
    fingerprints = [
        probe_fingerprint(seed=seed, **probe_kwargs) for _ in range(runs)
    ]
    return _diff_fingerprints(fingerprints)


def fleet_fingerprint(seed=17, scenario="churn"):
    """Run one seeded fleet scenario in isolation; return its fingerprint.

    ``scenario`` is ``"churn"`` (the canonical 16-host / 3-tenant run),
    ``"smoke"`` (the two-host probe leg), or ``"hybrid"`` (the churn run
    re-priced by the hybrid-fidelity engine, whose promoted packet
    windows must be just as reproducible as the fluid epochs).  Fresh
    registry and tracer per call, as in :func:`probe_fingerprint`.
    """
    import functools

    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.workloads.fleet_bench import run_churn, run_fleet_smoke  # simlint: ok L-layer

    registry = MetricsRegistry("determinism-fleet")
    tracer = Tracer("determinism-fleet")
    flight = FlightRecorder()
    runner = {
        "churn": run_churn,
        "smoke": run_fleet_smoke,
        "hybrid": functools.partial(run_churn, fidelity="hybrid"),
    }[scenario]
    runner(seed=seed, registry=registry, tracer=tracer, flight=flight)
    metrics = registry.snapshot()
    return ProbeFingerprint(
        seed=seed,
        metrics=metrics,
        metrics_digest=snapshot_digest(metrics),
        trace_digest=trace_digest(tracer),
        trace_events=len(tracer),
        flight_digest=flight.digest(),
    )


# Result type returned by the fleet determinism check; consumers
# duck-type the instance rather than importing the class.
class FleetDeterminismReport:  # simlint: ok L-api-drift
    """Outcome of the multi-seed fleet determinism check."""

    __slots__ = ("reports", "cross_seed_distinct")

    def __init__(self, reports, cross_seed_distinct):
        #: ``{seed: DeterminismReport}`` — each seed must self-reproduce.
        self.reports = reports
        #: Different seeds must also produce *different* runs, or the
        #: scenario is not actually consuming its seed.
        self.cross_seed_distinct = cross_seed_distinct

    @property
    def ok(self):
        return self.cross_seed_distinct and all(
            report.ok for report in self.reports.values()
        )

    def describe(self):
        lines = []
        for seed, report in self.reports.items():
            lines.append("seed %d: %s" % (seed, report.describe()))
        if not self.cross_seed_distinct:
            lines.append("seeds produced identical traces (seed unused?)")
        return "; ".join(lines)

    def __repr__(self):
        return "FleetDeterminismReport(ok=%s, seeds=%s)" % (
            self.ok, sorted(self.reports),
        )


def check_fleet_determinism(seeds=(17, 23), runs=2, scenario="churn"):
    """Fleet determinism gate: each seed reproduces, seeds differ.

    Runs the scenario ``runs`` times per seed, diffing metrics + trace
    digests per seed exactly like :func:`check_determinism`, and
    additionally requires distinct seeds to produce distinct traces.
    """
    if runs < 2:
        raise ValueError("determinism needs at least 2 runs, got %d" % runs)
    reports = {}
    first_digests = []
    for seed in seeds:
        fingerprints = [
            fleet_fingerprint(seed=seed, scenario=scenario)
            for _ in range(runs)
        ]
        reports[seed] = _diff_fingerprints(fingerprints)
        first_digests.append(fingerprints[0].trace_digest)
    cross_seed_distinct = len(set(first_digests)) == len(first_digests)
    return FleetDeterminismReport(reports, cross_seed_distinct)

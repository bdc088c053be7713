"""Double-run determinism regression: the seeded full-stack probe must
reproduce itself byte-for-byte (flattened metrics) and event-for-event
(trace digest).  Every figure in EXPERIMENTS.md rests on this."""

import contextlib
import json

import pytest

from repro.obs.determinism import (
    canonical_trace_events,
    check_determinism,
    probe_fingerprint,
    snapshot_digest,
    trace_digest,
)
from repro.obs.trace import Tracer
from tests.contract_digests import (
    assert_pinned,
    assert_pinned_iotlb,
    iotlb_totals,
)


@contextlib.contextmanager
def recording_iotlb_totals():
    """Collect the summed IOTLB counters of every fleet the determinism
    runs build, in run order (the fleet itself is not kept)."""
    import repro.workloads.fleet_bench as fleet_bench

    totals = []

    def recorded(runner):
        def run(*args, **kwargs):
            fleet, result = runner(*args, **kwargs)
            totals.append(iotlb_totals(fleet))
            return fleet, result
        return run

    with pytest.MonkeyPatch.context() as patch:
        for name in ("run_churn", "run_fleet_smoke"):
            patch.setattr(fleet_bench, name,
                          recorded(getattr(fleet_bench, name)))
        yield totals


class TestDigests:
    def test_snapshot_digest_is_stable_across_key_order(self):
        a = {"x": 1, "y": 2.5}
        b = {"y": 2.5, "x": 1}
        assert snapshot_digest(a) == snapshot_digest(b)

    def test_snapshot_digest_sees_value_changes(self):
        assert snapshot_digest({"x": 1}) != snapshot_digest({"x": 2})

    def test_trace_digest_sees_sim_time_changes(self):
        first, second = Tracer("t"), Tracer("t")
        first.instant("x", 1e-6)
        second.instant("x", 2e-6)
        assert trace_digest(first) != trace_digest(second)

    def test_canonical_events_keep_non_wall_args(self):
        tracer = Tracer("t")
        tracer.instant("x", 1e-6, args={"bytes": 64})
        events = canonical_trace_events(tracer)
        payload = [e for e in events if e.get("name") == "x"]
        assert payload and payload[0]["args"] == {"bytes": 64}

    def test_canonical_events_are_json_serializable(self):
        tracer = Tracer("t")
        tracer.complete("span", 0.0, 1e-6)
        json.dumps(canonical_trace_events(tracer))


class TestDoubleRunProbe:
    @pytest.fixture(scope="class")
    def report(self):
        return check_determinism(seed=17, runs=2)

    def test_metrics_snapshots_identical(self, report):
        assert report.metric_mismatches == []
        first, second = report.fingerprints
        assert first.metrics == second.metrics
        # Byte-identical, not merely equal:
        assert (json.dumps(first.metrics, sort_keys=True, default=repr)
                == json.dumps(second.metrics, sort_keys=True, default=repr))
        assert first.metrics_digest == second.metrics_digest

    def test_trace_digests_identical(self, report):
        first, second = report.fingerprints
        assert first.trace_digest == second.trace_digest
        assert first.trace_events == second.trace_events > 0
        assert report.trace_match

    def test_report_is_ok(self, report):
        assert report.ok
        assert report.describe().startswith("deterministic")

    def test_matches_the_pinned_contract_digests(self, report):
        assert_pinned("probe", 17, report.fingerprints[0])

    def test_different_seed_changes_the_fingerprint(self, report):
        other = probe_fingerprint(seed=18)
        assert other.metrics_digest != report.fingerprints[0].metrics_digest
        assert_pinned("probe", 18, other)

    def test_mismatch_reporting_names_the_metric(self):
        fp_a = probe_fingerprint(seed=17)
        fp_b = probe_fingerprint(seed=18)
        # Hand-build a report the way check_determinism would if a seed
        # leaked: the diff must name concrete metric keys.
        from repro.obs.determinism import DeterminismReport

        mismatches = [
            (key, [fp_a.metrics.get(key), fp_b.metrics.get(key)])
            for key in fp_a.metrics
            if fp_a.metrics.get(key) != fp_b.metrics.get(key)
        ][:5]
        report = DeterminismReport([fp_a, fp_b], mismatches,
                                   fp_a.trace_digest == fp_b.trace_digest)
        assert not report.ok
        assert "differs across runs" in report.describe() or \
            "trace digests differ" in report.describe()

    def test_rejects_single_run(self):
        with pytest.raises(ValueError):
            check_determinism(runs=1)


class TestFleetDeterminism:
    @pytest.fixture(scope="class")
    def smoke_runs(self):
        from repro.obs.determinism import check_fleet_determinism

        with recording_iotlb_totals() as totals:
            report = check_fleet_determinism(seeds=(17, 23), runs=2,
                                             scenario="smoke")
        return report, totals

    @pytest.fixture(scope="class")
    def smoke_report(self, smoke_runs):
        return smoke_runs[0]

    def test_each_seed_reproduces(self, smoke_report):
        for seed, report in smoke_report.reports.items():
            assert report.ok, "seed %d: %s" % (seed, report.describe())
            first, second = report.fingerprints
            assert first.metrics == second.metrics
            assert first.trace_digest == second.trace_digest

    def test_distinct_seeds_produce_distinct_traces(self, smoke_report):
        assert smoke_report.cross_seed_distinct
        assert smoke_report.ok

    def test_matches_the_pinned_contract_digests(self, smoke_report):
        for seed, report in smoke_report.reports.items():
            assert_pinned("smoke", seed, report.fingerprints[0])

    def test_matches_the_pinned_iotlb_totals(self, smoke_runs):
        _, totals = smoke_runs
        assert len(totals) == 4  # seeds 17, 17, 23, 23
        assert totals[0] == totals[1]
        assert_pinned_iotlb("smoke", 17, totals[0])

    def test_churn_scenario_double_run_is_digest_equal(self):
        from repro.obs.determinism import check_fleet_determinism

        with recording_iotlb_totals() as totals:
            report = check_fleet_determinism(seeds=(17,), runs=2,
                                             scenario="churn")
        assert totals[0] == totals[1]
        assert_pinned_iotlb("churn", 17, totals[0])
        assert report.ok, report.describe()
        inner = report.reports[17]
        assert inner.trace_match
        assert inner.metric_mismatches == []
        assert inner.fingerprints[0].trace_events > 0
        assert_pinned("churn", 17, inner.fingerprints[0])

    def test_rejects_single_fleet_run(self):
        from repro.obs.determinism import check_fleet_determinism

        with pytest.raises(ValueError):
            check_fleet_determinism(runs=1)

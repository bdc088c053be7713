"""Hybrid-fidelity engine tests: controller semantics, fleet wiring,
byte conservation, and digest stability.

The controller's window arithmetic is pure sim-time (no RNG, no wall
clock), so its promote/extend/demote decisions are unit-testable with
bare floats; the integration tests then pin the behaviours the fleet
builds on top: packet windows opening around injected faults, the
cross-fidelity byte ledger conserving exactly, parity with fluid-only
pricing when no trigger ever fires, and double-run digest identity for
hybrid runs (the acceptance oracle for deterministic window boundaries).
"""

import pytest

from repro.cluster.fidelity import (
    DEFAULT_HYSTERESIS_SECONDS,
    DEFAULT_WINDOW_SECONDS,
    TRIGGER_KINDS,
    Fidelity,
    FidelityController,
)
from repro.obs.determinism import check_fleet_determinism, trace_digest
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim import SimSanitizer
from repro.sim.sanitizer import SanitizerError
from repro.workloads.fleet_bench import build_churn_fleet, run_fleet_smoke
from tests.contract_digests import assert_pinned


class TestControllerStateMachine:
    def test_defaults_and_catalogue(self):
        ctl = FidelityController(mode=Fidelity.HYBRID)
        assert ctl.window_seconds == DEFAULT_WINDOW_SECONDS
        assert ctl.hysteresis_seconds == DEFAULT_HYSTERESIS_SECONDS
        # Every trigger the fleet can report is in the catalogue.
        assert set(TRIGGER_KINDS) == {
            "link-fail", "link-heal", "loss-inject", "admission-burst",
            "cc-collapse",
        }

    def test_fluid_mode_counts_but_never_promotes(self):
        ctl = FidelityController(mode="fluid")
        for kind in TRIGGER_KINDS:
            assert ctl.on_trigger(1.0, kind) is None
        assert ctl.triggers == len(TRIGGER_KINDS)
        assert ctl.promotions == 0
        assert not ctl.active(1.0)
        assert ctl.release_time() is None

    def test_packet_mode_is_always_promoted(self):
        ctl = FidelityController(mode="packet")
        assert ctl.active(0.0)
        assert ctl.active(1e9)
        assert ctl.on_trigger(5.0, "link-fail") is None

    def test_promote_opens_a_bounded_window(self):
        ctl = FidelityController(mode="hybrid", window_seconds=4.0,
                                 hysteresis_seconds=2.0)
        assert ctl.on_trigger(10.0, "link-fail") == "promote"
        assert ctl.window_open()
        assert ctl.release_time() == 16.0  # 10 + 4 + 2
        assert ctl.active(10.0)
        assert ctl.active(15.999)  # hysteresis tail is still promoted
        assert not ctl.active(16.0)

    def test_overlapping_triggers_coalesce_into_one_window(self):
        ctl = FidelityController(mode="hybrid", window_seconds=4.0,
                                 hysteresis_seconds=2.0)
        assert ctl.on_trigger(10.0, "link-fail") == "promote"
        assert ctl.on_trigger(12.0, "loss-inject") == "extend"
        assert ctl.on_trigger(12.5, "cc-collapse") == "extend"
        assert ctl.promotions == 1
        assert ctl.extensions == 2
        assert ctl.release_time() == 18.5  # max end, not a stack of windows
        # An early trigger inside the window never shortens it.
        assert ctl.on_trigger(12.6, "link-heal") == "extend"
        assert ctl.release_time() == 18.6

    def test_demotion_respects_hysteresis(self):
        ctl = FidelityController(mode="hybrid", window_seconds=4.0,
                                 hysteresis_seconds=2.0)
        ctl.on_trigger(10.0, "link-fail")
        # A stale callback (window was extended past it) stands down.
        assert not ctl.note_demotion(15.0)
        assert ctl.window_open()
        assert ctl.note_demotion(16.0)
        assert not ctl.window_open()
        assert ctl.demotions == 1
        assert ctl.windows == [(10.0, 14.0, 16.0)]

    def test_trigger_exactly_at_release_boundary_starts_a_new_window(self):
        # The boundary belongs to the demotion: release_time() is the
        # first instant the window is closed, so a trigger landing there
        # must open a fresh window even when the demotion callback is
        # still queued behind it.
        ctl = FidelityController(mode="hybrid", window_seconds=4.0,
                                 hysteresis_seconds=2.0)
        ctl.on_trigger(10.0, "link-fail")
        assert ctl.on_trigger(16.0, "link-heal") == "promote"
        assert ctl.promotions == 2
        assert ctl.windows == [(10.0, 14.0, 16.0)]  # closed by the trigger
        assert ctl.release_time() == 22.0
        # The stale demotion callback queued at 16.0 now stands down.
        assert not ctl.note_demotion(16.0)

    def test_coerce_accepts_strings_enums_and_controllers(self):
        assert FidelityController.coerce("hybrid").mode is Fidelity.HYBRID
        assert FidelityController.coerce(Fidelity.PACKET).mode is Fidelity.PACKET
        tuned = FidelityController(mode="hybrid", window_seconds=1.0)
        assert FidelityController.coerce(tuned) is tuned

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FidelityController(mode="hybrid", window_seconds=0.0)
        with pytest.raises(ValueError):
            FidelityController(mode="hybrid", hysteresis_seconds=-1.0)
        with pytest.raises(ValueError):
            FidelityController.coerce("quantum")


@pytest.fixture(scope="module")
def hybrid_smoke():
    registry = MetricsRegistry("fidelity-smoke-test")
    fleet, result = run_fleet_smoke(registry=registry, fidelity="hybrid")
    return fleet, result, registry


class TestHybridFleet:
    def test_fault_promotes_a_packet_window(self, hybrid_smoke):
        fleet, result, registry = hybrid_smoke
        ctl = fleet.fidelity
        assert ctl.promotions >= 1
        assert ctl.trigger_counts.get("link-fail", 0) >= 1
        # The run drains, so every window must have closed again.
        assert not ctl.window_open()
        assert ctl.demotions == len(ctl.windows)
        assert fleet.fidelity_pricing_events > 0

    def test_byte_ledger_conserves_fleet_wide_and_per_job(self, hybrid_smoke):
        fleet, result, registry = hybrid_smoke
        assert fleet.dp_bytes_packet > 0  # the window priced real blocks
        assert fleet.dp_bytes_fluid > 0
        assert (fleet.dp_bytes_fluid + fleet.dp_bytes_packet
                == fleet.dp_bytes_total)
        for job in fleet.jobs:
            assert (job.dp_bytes_fluid + job.dp_bytes_packet
                    == job.dp_bytes_total), job.spec.name

    def test_job_ending_mid_window_is_accounted_exactly(self, hybrid_smoke):
        fleet, result, registry = hybrid_smoke
        start, end, closed_at = fleet.fidelity.windows[0]
        mid_window = [
            job for job in fleet.jobs
            if job.end_time is not None and start <= job.end_time < closed_at
        ]
        # The smoke scenario is tuned so at least one job terminates
        # inside the promoted window; its ledger must still balance and
        # its last blocks must have been packet-priced.
        assert mid_window
        for job in mid_window:
            assert job.dp_bytes_packet > 0
            assert (job.dp_bytes_fluid + job.dp_bytes_packet
                    == job.dp_bytes_total)

    def test_sanitizer_passes_cross_fidelity_conservation(self, hybrid_smoke):
        fleet, result, registry = hybrid_smoke
        SimSanitizer(fleet.engine, registry).check_conservation(drained=True)

    def test_sanitizer_catches_a_cooked_ledger(self, hybrid_smoke):
        fleet, result, registry = hybrid_smoke
        snapshot = registry.snapshot()
        key = next(k for k in snapshot if k.endswith("dp_bytes_fluid"))
        snapshot[key] += 1
        with pytest.raises(SanitizerError, match="double-counted or dropped"):
            SimSanitizer(fleet.engine, registry).check_conservation(
                snapshot=snapshot, drained=True
            )


class TestHybridParityAndDeterminism:
    def test_hybrid_equals_fluid_when_no_trigger_fires(self):
        # Same seed, failure injection off: the controller never
        # promotes, so hybrid pricing must be the fluid pricing —
        # trace-digest-identical, not merely close.
        outcomes = {}
        for fidelity in ("fluid", "hybrid"):
            tracer = Tracer("parity")  # same name: it enters the digest
            fleet = build_churn_fleet(tracer=tracer, failure=False,
                                      fidelity=fidelity)
            fleet.run()
            assert fleet.fidelity.promotions == 0
            outcomes[fidelity] = (
                trace_digest(tracer),
                [(job.spec.name, job.end_time, job.iterations_done,
                  job.dp_bytes_total) for job in fleet.jobs],
                fleet.dp_bytes_packet,
            )
        assert outcomes["fluid"][0] == outcomes["hybrid"][0]
        assert outcomes["fluid"][1] == outcomes["hybrid"][1]
        assert outcomes["hybrid"][2] == 0

    def test_hybrid_churn_is_double_run_digest_stable(self):
        report = check_fleet_determinism(seeds=(17, 23), runs=2,
                                         scenario="hybrid")
        assert report.ok, report.describe()
        for seed, inner in report.reports.items():
            assert_pinned("hybrid", seed, inner.fingerprints[0])


def _lossy_churn(fidelity):
    """The churn scenario without its link failure, plus 5% random loss
    on one live uplink for ten sim seconds."""
    fleet = build_churn_fleet(seed=17, failure=False, fidelity=fidelity)
    fleet.inject_loss(30.0, 10.0, loss=0.05)
    fleet.run()
    return fleet.snapshot()


class TestLossTrigger:
    def test_hybrid_loss_promotes_and_prices_a_lossy_packet_window(self):
        snap = _lossy_churn("hybrid")
        assert snap["loss_injections"] == 1
        assert snap["fidelity_promotions"] >= 1
        assert snap["dp_bytes_packet"] > 0
        assert (snap["dp_bytes_fluid"] + snap["dp_bytes_packet"]
                == snap["dp_bytes_total"])
        assert snap["jobs_completed"] == snap["jobs_submitted"]

    def test_fluid_loss_counts_triggers_but_never_promotes(self):
        # Random loss is below the fluid model's resolution: the trigger
        # is counted (start and end of the injection) and nothing else.
        snap = _lossy_churn("fluid")
        assert snap["loss_injections"] == 1
        assert snap["fidelity_promotions"] == 0
        assert snap["dp_bytes_packet"] == 0
        assert snap["fidelity_triggers"] == 2
        assert snap["jobs_completed"] == snap["jobs_submitted"]

"""SimSanitizer runtime invariants: clock, event leaks, conservation."""

import pytest

from repro.obs import Tracer
from repro.obs.determinism import trace_digest
from repro.obs.metrics import MetricsRegistry
from repro.sim import EventScheduler, SanitizerError, SimSanitizer


class TestAttachDetach:
    def test_attach_wraps_and_detach_restores(self):
        def rewind():
            sched.now = 0.5

        sched = EventScheduler()
        sanitizer = SimSanitizer(sched)
        assert sanitizer.attach() is sanitizer
        sched.schedule(1.0, rewind)
        with pytest.raises(SanitizerError, match="backwards inside"):
            sched.run()
        sanitizer.detach()
        sched.schedule(1.0, rewind)
        assert sched.run() == 1

    def test_attach_is_idempotent(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched)
        checked = []
        check_event = sanitizer._check_event
        sanitizer._check_event = lambda event_time, callback: (
            checked.append(event_time), check_event(event_time, callback))
        sanitizer.attach()
        sanitizer.attach()
        for delay in (1.0, 2.0):
            sched.schedule(delay, lambda: None)
        sched.run()
        assert checked == [1.0, 2.0]  # each event checked once
        sanitizer.detach()
        sched.schedule(1.0, lambda: None)
        sched.run()
        assert checked == [1.0, 2.0]

    def test_wrapped_scheduler_still_runs(self):
        sched = EventScheduler()
        seen = []
        with SimSanitizer(sched):
            for delay in (3.0, 1.0, 2.0):
                sched.schedule(delay, lambda d=delay: seen.append(d))
            sched.run()
        assert seen == [1.0, 2.0, 3.0]
        assert sched.now == 3.0


class TestClock:
    def test_monotonic_run_passes(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched).attach()
        sched.schedule(1.0, lambda: None)
        sched.run()
        sanitizer.check_clock()

    def test_backwards_clock_detected(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched).attach()
        sched.schedule(1.0, lambda: None)
        sched.run()
        # Simulate a component rewinding the clock behind the
        # scheduler's back (the bug class the sanitizer exists for).
        sched.now = 0.25
        with pytest.raises(SanitizerError, match="regressed"):
            sanitizer.check_clock()

    def test_backwards_step_detected(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched).attach()

        def rewind():
            sched.now = -5.0  # a callback corrupting the clock

        sched.schedule(1.0, rewind)
        with pytest.raises(SanitizerError, match="backwards"):
            sched.run()


    def test_backwards_clock_inside_same_timestamp_batch_detected(self):
        # Events sharing a timestamp drain in run()'s batched inner loop;
        # the sanitizer's hook must fire there too.
        sched = EventScheduler()
        SimSanitizer(sched).attach()
        fired = []

        def rewind():
            fired.append("rewind")
            sched.now = 0.5

        sched.schedule(1.0, lambda: fired.append("first"))
        sched.schedule(1.0, rewind)
        sched.schedule(1.0, lambda: fired.append("after"))
        with pytest.raises(SanitizerError, match="inside .*rewind: 1 -> 0.5"):
            sched.run()
        assert fired == ["first", "rewind"]


class TestWithTracer:
    @staticmethod
    def _traced_run(sanitize):
        sched = EventScheduler()
        tracer = Tracer("sanitized")
        sched.set_tracer(tracer)
        if sanitize:
            SimSanitizer(sched).attach()

        def spawn(i):
            if i < 40:
                sched.schedule(1e-6 * (i % 3), lambda: spawn(i + 1))

        for i in range(4):
            sched.schedule(i * 1e-6, lambda i=i: spawn(i * 10))
            sched.schedule_call(i * 1e-6, lambda: None)
        sched.run()
        return sched, tracer

    def test_one_callback_record_per_event_and_same_digest(self):
        sched, tracer = self._traced_run(sanitize=True)
        records = [e for e in tracer.events if e.cat == "callback"]
        assert len(records) == sched.events_executed
        assert any(e.cat == "counter" for e in tracer.events)
        _, plain = self._traced_run(sanitize=False)
        assert trace_digest(tracer) == trace_digest(plain)


class TestEventLeak:
    def test_drained_queue_passes(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched)
        sched.schedule(1.0, lambda: None)
        sched.run()
        sanitizer.assert_drained()

    def test_injected_leak_detected(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched)

        def leaky_workload():
            sched.schedule(10.0, lambda: None)  # never consumed

        sched.schedule(1.0, leaky_workload)
        sched.run(until=5.0)
        with pytest.raises(SanitizerError, match="event leak: 1 live"):
            sanitizer.assert_drained()

    def test_cancelled_events_are_not_leaks(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched)
        event = sched.schedule(10.0, lambda: None)
        event.cancel()
        sanitizer.assert_drained()

    def test_leak_error_names_the_callback(self):
        sched = EventScheduler()
        sanitizer = SimSanitizer(sched)

        def culprit():
            pass

        sched.schedule(2.0, culprit)
        with pytest.raises(SanitizerError, match="culprit"):
            sanitizer.assert_drained()


class TestConservation:
    @staticmethod
    def good_snapshot():
        return {
            "net.sim.packets_sent": 10,
            "net.sim.packets_delivered": 8,
            "net.sim.packets_dropped": 2,
            "mem.iommu.iotlb_size": 2,
            "mem.iommu.iotlb_capacity": 4,
            "pcie.switch.s0.lut_used": 1,
            "pcie.switch.s0.lut_capacity": 32,
        }

    def test_balanced_snapshot_passes(self):
        sanitizer = SimSanitizer(EventScheduler())
        sanitizer.check_conservation(snapshot=self.good_snapshot())
        assert sanitizer.checks_run == 1

    def test_overdelivery_detected(self):
        snapshot = self.good_snapshot()
        snapshot["net.sim.packets_delivered"] = 11
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="exceeds sent"):
            sanitizer.check_conservation(snapshot=snapshot)

    def test_unaccounted_packets_at_drain_detected(self):
        snapshot = self.good_snapshot()
        snapshot["net.sim.packets_dropped"] = 0  # 2 packets vanish
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="unaccounted"):
            sanitizer.check_conservation(snapshot=snapshot, drained=True)

    def test_in_flight_packets_allowed_mid_run(self):
        snapshot = self.good_snapshot()
        snapshot["net.sim.packets_dropped"] = 0  # still in flight
        sanitizer = SimSanitizer(EventScheduler())
        sanitizer.check_conservation(snapshot=snapshot, drained=False)

    def test_occupancy_over_capacity_detected(self):
        snapshot = self.good_snapshot()
        snapshot["mem.iommu.iotlb_size"] = 5
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="exceeds configured capacity"):
            sanitizer.check_conservation(snapshot=snapshot)

    def test_lut_over_capacity_detected(self):
        snapshot = self.good_snapshot()
        snapshot["pcie.switch.s0.lut_used"] = 33
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="lut_used"):
            sanitizer.check_conservation(snapshot=snapshot)

    def test_negative_occupancy_detected(self):
        snapshot = self.good_snapshot()
        snapshot["mem.iommu.iotlb_size"] = -1
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="negative"):
            sanitizer.check_conservation(snapshot=snapshot)

    def test_registry_source(self):
        registry = MetricsRegistry("t")
        registry.counter("net.sim.packets_sent").inc(3)
        registry.counter("net.sim.packets_delivered").inc(3)
        registry.counter("net.sim.packets_dropped")
        sanitizer = SimSanitizer(EventScheduler(), registry=registry)
        sanitizer.check_conservation()

    def test_no_registry_and_no_snapshot_raises(self):
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="no registry"):
            sanitizer.check_conservation()


class TestFullStack:
    """The sanitizer against the real telemetry probe."""

    def test_probe_run_satisfies_all_invariants(self):
        from repro.obs.probe import run_probe
        from repro.obs.trace import Tracer

        result = run_probe(registry=MetricsRegistry("sanitizer-probe"),
                           tracer=Tracer("sanitizer-probe"))
        sanitizer = SimSanitizer(result.sim.scheduler,
                                 registry=result.registry)
        sanitizer.check_clock()
        sanitizer.check_conservation()
        sanitizer.check()

    def test_context_manager_checks_on_exit(self):
        registry = MetricsRegistry("t")
        registry.counter("x.packets_sent").inc(2)
        registry.counter("x.packets_delivered").inc(1)
        registry.counter("x.packets_dropped")
        sched = EventScheduler()
        with pytest.raises(SanitizerError, match="unaccounted"):
            with SimSanitizer(sched, registry=registry):
                sched.run(until=1.0)  # drains; 1 packet unaccounted


class TestJobConservation:
    @staticmethod
    def fleet_snapshot():
        return {
            "cluster.fleet.jobs_submitted": 3,
            "cluster.fleet.jobs_queued": 1,
            "cluster.fleet.jobs_starting": 0,
            "cluster.fleet.jobs_running": 1,
            "cluster.fleet.jobs_completed": 1,
            "cluster.fleet.jobs_failed": 0,
        }

    def test_balanced_job_counts_pass(self):
        sanitizer = SimSanitizer(EventScheduler())
        sanitizer.check_conservation(snapshot=self.fleet_snapshot())

    def test_lost_job_detected(self):
        snapshot = self.fleet_snapshot()
        snapshot["cluster.fleet.jobs_running"] = 0  # a job vanished
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="3 were submitted"):
            sanitizer.check_conservation(snapshot=snapshot)

    def test_double_counted_job_detected(self):
        snapshot = self.fleet_snapshot()
        snapshot["cluster.fleet.jobs_completed"] = 2  # counted twice
        sanitizer = SimSanitizer(EventScheduler())
        with pytest.raises(SanitizerError, match="job states sum to 4"):
            sanitizer.check_conservation(snapshot=snapshot)

    def test_partial_families_are_skipped(self):
        snapshot = {"cluster.fleet.jobs_submitted": 3}  # no state leaves
        sanitizer = SimSanitizer(EventScheduler())
        sanitizer.check_conservation(snapshot=snapshot)

"""Fast-path behaviour of the tuple-heap EventScheduler.

The PR 4 scheduler keeps (time, seq, payload) tuples on the heap, counts
cancelled entries incrementally, compacts lazily when dead entries
dominate, and fuses the run loop.  These tests pin the observable
contract of all of that: execution order is unchanged, ``pending()`` is
exact under heavy cancellation, the heap cannot grow unbounded with
cancelled RTO-style timers, and a hook registered with ``observe()``
(the tracer, SimSanitizer) sees every event.
"""

import pytest

from repro.sim.engine import Event, EventScheduler, SimProcessError


class TestCancellationHeavy:
    def test_pending_is_exact_under_mass_cancellation(self):
        sched = EventScheduler()
        events = [sched.schedule(i * 1e-6, lambda: None) for i in range(1000)]
        assert sched.pending() == 1000
        for event in events[::2]:
            event.cancel()
        assert sched.pending() == 500

    def test_cancel_is_idempotent_in_the_accounting(self):
        sched = EventScheduler()
        events = [sched.schedule(1.0, lambda: None) for _ in range(10)]
        events[0].cancel()
        events[0].cancel()
        events[0].cancel()
        assert sched.pending() == 9

    def test_heap_compacts_when_dead_entries_dominate(self):
        # RTO-timer pattern: thousands of timers scheduled far in the
        # future, almost all cancelled long before their deadline.  The
        # seed scheduler kept every carcass until its timestamp; the
        # compacting heap must stay bounded by the live set.
        sched = EventScheduler()
        events = [sched.schedule(10.0, lambda: None) for _ in range(4000)]
        for event in events[:-10]:
            event.cancel()
        assert sched.pending() == 10
        assert sched.snapshot()["queue_len"] < 4000
        assert sched.snapshot()["queue_len"] >= 10

    def test_traced_scheduler_compacts_like_untraced(self):
        # A tracer only records: the traced heap compacts exactly when
        # and how the untraced one does, so queue lengths, pending
        # counts, and the executed survivors all match.
        class _Tracer:
            enabled = True

            def record_callback(self, ts, name, queue_depth=None):
                pass

        def drive(sched):
            fired = []
            events = [
                sched.schedule(10.0, lambda i=i: fired.append(i))
                for i in range(4000)
            ]
            lengths = []
            for event in events[:-10]:
                event.cancel()
                lengths.append(sched.snapshot()["queue_len"])
            pending = sched.pending()
            sched.run()
            return lengths, pending, fired, sched.events_executed

        untraced = drive(EventScheduler())
        traced = drive(EventScheduler(tracer=_Tracer()))
        assert traced == untraced
        assert traced[0][-1] < 4000
        assert traced[1] == 10
        assert traced[2] == list(range(3990, 4000))

    def test_cancellation_heavy_workload_executes_survivors_in_order(self):
        sched = EventScheduler()
        fired = []
        events = []
        for i in range(2000):
            events.append(
                sched.schedule(i * 1e-6, lambda i=i: fired.append(i))
            )
        for i, event in enumerate(events):
            if i % 17 != 0:
                event.cancel()
        sched.run()
        assert fired == [i for i in range(2000) if i % 17 == 0]
        assert sched.pending() == 0

    def test_cancel_after_execution_does_not_corrupt_counts(self):
        sched = EventScheduler()
        event = sched.schedule(0.0, lambda: None)
        survivor = sched.schedule(1.0, lambda: None)
        sched.run(until=0.5)
        event.cancel()  # already executed: must be a no-op
        assert sched.pending() == 1
        survivor.cancel()
        assert sched.pending() == 0

    def test_compaction_from_inside_a_callback(self):
        # A callback that cancels enough timers to trigger compaction
        # while the fused run loop holds a local heap reference.
        sched = EventScheduler()
        timers = [sched.schedule(5.0, lambda: None) for _ in range(500)]
        fired = []

        def cancel_all():
            for timer in timers:
                timer.cancel()
            fired.append("cancelled")

        sched.schedule(0.1, cancel_all)
        sched.schedule(0.2, lambda: fired.append("after"))
        sched.run()
        assert fired == ["cancelled", "after"]
        assert sched.pending() == 0


class TestLargeWorkloads:
    def test_million_event_chain(self):
        # One self-rescheduling chain executing a million events: the
        # run loop must hold time monotonicity and exact accounting at
        # packet-kernel scale.
        sched = EventScheduler()
        target = 1_000_000
        state = {"count": 0}

        def tick():
            state["count"] += 1
            if state["count"] < target:
                sched.schedule_call(1e-6, tick)

        sched.schedule_call(0.0, tick)
        executed = sched.run()
        assert executed == target
        assert state["count"] == target
        assert sched.events_executed == target
        assert sched.pending() == 0
        assert sched.now == pytest.approx((target - 1) * 1e-6, rel=1e-6)

    def test_max_events_budget_on_large_run(self):
        sched = EventScheduler()

        def tick():
            sched.schedule_call(1e-6, tick)

        sched.schedule_call(0.0, tick)
        assert sched.run(max_events=50_000) == 50_000
        assert sched.events_executed == 50_000


class TestScheduleCall:
    def test_schedule_call_interleaves_with_schedule(self):
        sched = EventScheduler()
        order = []
        sched.schedule(2e-6, lambda: order.append("event"))
        sched.schedule_call(1e-6, lambda: order.append("bare-early"))
        sched.schedule_call(3e-6, lambda: order.append("bare-late"))
        sched.run()
        assert order == ["bare-early", "event", "bare-late"]

    def test_schedule_call_ties_break_by_insertion(self):
        sched = EventScheduler()
        order = []
        sched.schedule_call(1e-6, lambda: order.append(0))
        sched.schedule(1e-6, lambda: order.append(1))
        sched.schedule_call(1e-6, lambda: order.append(2))
        sched.run()
        assert order == [0, 1, 2]

    def test_schedule_call_rejects_negative_delay(self):
        sched = EventScheduler()
        with pytest.raises(SimProcessError):
            sched.schedule_call(-1.0, lambda: None)

    def test_live_events_wraps_bare_callbacks(self):
        sched = EventScheduler()
        sched.schedule_call(2e-6, lambda: None)
        handle = sched.schedule(1e-6, lambda: None)
        live = sched.live_events()
        assert len(live) == 2
        assert all(isinstance(event, Event) for event in live)
        assert live[0] is handle  # sorted by (time, seq)
        assert live[1].time == pytest.approx(2e-6)

    def test_pending_counts_bare_callbacks(self):
        sched = EventScheduler()
        sched.schedule_call(1e-6, lambda: None)
        sched.schedule_call(2e-6, lambda: None)
        assert sched.pending() == 2
        sched.run()
        assert sched.pending() == 0


class TestRunStepEquivalence:
    @staticmethod
    def _workload(sched, log):
        events = []

        def spawn(i):
            log.append((sched.now, i))
            if i < 50:
                sched.schedule(1e-6 * (i % 3 + 1), lambda: spawn(i + 1))

        for i in range(5):
            events.append(sched.schedule(i * 1e-6, lambda i=i: spawn(i * 100)))
        events[3].cancel()
        sched.schedule_call(2.5e-6, lambda: log.append((sched.now, "bare")))

    def test_fused_run_matches_manual_stepping(self):
        # Splitting the event budget into one-event run() calls cannot
        # change what runs, in what order, or at what sim time.
        fused_log = []
        fused = EventScheduler()
        self._workload(fused, fused_log)
        fused.run()

        stepped_log = []
        stepped = EventScheduler()
        self._workload(stepped, stepped_log)
        while stepped.run(max_events=1):
            pass

        assert fused_log == stepped_log
        assert fused.now == stepped.now
        assert fused.events_executed == stepped.events_executed

    def test_step_shadow_intercepts_every_event(self):
        # A hook registered with observe() sees every executed event,
        # same-timestamp batches included, after its callback.
        sched = EventScheduler()
        seen = []
        sched.observe(lambda event_time, callback: seen.append(event_time))
        fired = []
        for i in range(5):
            sched.schedule(i * 1e-6, lambda i=i: fired.append(i))
        executed = sched.run()
        assert executed == 5
        assert fired == [0, 1, 2, 3, 4]
        assert len(seen) == 5

    def test_step_shadow_respects_until_and_budget(self):
        sched = EventScheduler()
        calls = []
        sched.observe(lambda event_time, callback: calls.append(sched.now))
        for i in range(10):
            sched.schedule(i * 1.0, lambda: None)
        assert sched.run(until=4.5) == 5
        assert sched.now == 4.5
        assert sched.run(max_events=2) == 2
        assert len(calls) == 7


class TestPeekTime:
    def test_peek_skips_cancelled_heads_and_fixes_accounting(self):
        sched = EventScheduler()
        doomed = [sched.schedule(1e-6, lambda: None) for _ in range(5)]
        sched.schedule(2e-6, lambda: None)
        for event in doomed:
            event.cancel()
        assert sched.peek_time() == pytest.approx(2e-6)
        assert sched.pending() == 1
        assert sched.snapshot()["queue_len"] == 1

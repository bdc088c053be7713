"""Runtime sim-invariant sanitizer: the dynamic half of the simlint
contract.

:mod:`repro.lint` proves statically that nothing *can* smuggle ambient
randomness or wall-clock time into a run; :class:`SimSanitizer` checks at
runtime that the simulation actually *behaves* like a deterministic
discrete-event system:

* **monotonic clock** — the scheduler's ``now`` never goes backwards
  across executed events (a regression here reorders everything
  downstream);
* **event-leak detection** — a workload that declares completion while
  live events remain queued has leaked them; the leaked events are named
  in the error so the culprit callback is one grep away;
* **conservation** — cross-checks sourced from a metrics snapshot:
  packets sent == delivered + dropped (+ in flight), every bounded
  structure (ATC/IOTLB ``size``/``capacity``, switch LUT
  ``lut_used``/``lut_capacity``, per-host ``gpus_used``/
  ``gpus_capacity``) stays within its configured capacity, fleet
  job accounting balances (submitted == queued + starting + running +
  completed + failed), and the hybrid-fidelity byte ledger conserves
  (``dp_bytes_fluid + dp_bytes_packet == dp_bytes_total``, fleet-wide
  and per job).

The sanitizer is opt-in and composable: ``attach()`` registers a
per-event hook with :meth:`~repro.sim.engine.EventScheduler.observe`, so
the clock is checked inside the scheduler's one run loop — batched
same-timestamp events included — and ``detach()`` removes it.  The
class works as a context manager that runs a full :meth:`check` on
clean exit.  Tests inject violations (a leaked event, a cooked snapshot)
and assert the sanitizer trips.
"""

from repro.obs.trace import callback_name
from repro.sim.engine import SimProcessError

#: Leaked events an event-leak error names before summarising the rest.
_MAX_LEAKED_SHOWN = 5


class SanitizerError(SimProcessError):
    """A simulation invariant was violated at runtime."""


class SimSanitizer:
    """Opt-in runtime invariant checks for one :class:`EventScheduler`.

    Args:
        scheduler: the scheduler to watch.
        registry: optional :class:`repro.obs.metrics.MetricsRegistry`
            whose snapshot feeds :meth:`check_conservation`.
    """

    def __init__(self, scheduler, registry=None):
        self.scheduler = scheduler
        self.registry = registry
        self.checks_run = 0
        self._attached = False
        self._max_now_seen = scheduler.now

    # -- clock monotonicity ----------------------------------------------

    def attach(self):
        """Check the clock after every executed event; returns ``self``
        for chaining."""
        if not self._attached:
            self.scheduler.observe(self._check_event)
            self._attached = True
        return self

    def detach(self):
        """Stop the per-event clock check."""
        if self._attached:
            self.scheduler.unobserve(self._check_event)
            self._attached = False
        return self

    def _check_event(self, event_time, callback):
        """Scheduler hook: the callback left the clock at or past its
        own timestamp."""
        now = self.scheduler.now
        if now < event_time:
            raise SanitizerError(
                "clock went backwards inside %s: %g -> %g"
                % (callback_name(callback), event_time, now)
            )
        if now > self._max_now_seen:
            self._max_now_seen = now

    def __enter__(self):
        return self.attach()

    def __exit__(self, exc_type, exc, tb):
        self.detach()
        if exc_type is None:
            self.check(drained=None)
        return False

    def check_clock(self):
        """The clock never regressed below its high-water mark."""
        now = self.scheduler.now
        if now < self._max_now_seen:
            raise SanitizerError(
                "clock regressed: now=%g below high-water mark %g"
                % (now, self._max_now_seen)
            )

    # -- event-leak detection --------------------------------------------

    def assert_drained(self):
        """Fail if live events remain after a workload declared completion.

        The error names the leaked events (time + callback) so the
        offending component is identifiable without a debugger.
        """
        leaked = self.scheduler.live_events()
        if not leaked:
            return
        shown = ", ".join(
            "t=%g:%s" % (event.time, callback_name(event.callback))
            for event in leaked[:_MAX_LEAKED_SHOWN]
        )
        more = len(leaked) - min(len(leaked), _MAX_LEAKED_SHOWN)
        raise SanitizerError(
            "event leak: %d live event(s) still queued at drain: %s%s"
            % (len(leaked), shown, " (+%d more)" % more if more else "")
        )

    # -- conservation ----------------------------------------------------

    def check_conservation(self, snapshot=None, drained=None):
        """Cross-check counters from a flat metrics snapshot.

        Args:
            snapshot: flat ``{dotted name: value}`` mapping; defaults to
                ``self.registry.snapshot()``.
            drained: whether the simulation has fully drained.  ``None``
                (default) infers it from the scheduler queue.  When
                drained, packet conservation must hold exactly; mid-run,
                in-flight packets make it an inequality.
        """
        if snapshot is None:
            if self.registry is None:
                raise SanitizerError(
                    "no snapshot given and no registry configured"
                )
            snapshot = self.registry.snapshot()
        if drained is None:
            drained = self.scheduler.pending() == 0
        self.checks_run += 1
        self._check_packet_conservation(snapshot, drained)
        self._check_capacities(snapshot)
        self._check_job_conservation(snapshot)
        self._check_fidelity_conservation(snapshot)

    @staticmethod
    def _check_packet_conservation(snapshot, drained):
        for key, sent in snapshot.items():
            if not key.endswith(".packets_sent"):
                continue
            base = key[:-len("packets_sent")]
            delivered = snapshot.get(base + "packets_delivered")
            dropped = snapshot.get(base + "packets_dropped")
            if delivered is None or dropped is None:
                continue
            accounted = delivered + dropped
            if accounted > sent:
                raise SanitizerError(
                    "%s*: delivered+dropped (%d+%d) exceeds sent (%d)"
                    % (base, delivered, dropped, sent)
                )
            if drained and accounted != sent:
                raise SanitizerError(
                    "%s*: %d packet(s) unaccounted for at drain "
                    "(sent=%d, delivered=%d, dropped=%d)"
                    % (base, sent - accounted, sent, delivered, dropped)
                )

    @staticmethod
    def _check_capacities(snapshot):
        # Occupancy leaves pair with a capacity leaf by naming convention:
        # ``<base>size``/``<base>capacity`` (ATC/IOTLB caches) and
        # ``<base>used``/``<base>capacity`` (switch LUTs) — covering both
        # ``x.size`` and ``iotlb_size`` spellings.
        for key, used in snapshot.items():
            if key.endswith("size") or key.endswith("used"):
                bound = snapshot.get(key[:-4] + "capacity")
            else:
                continue
            if bound is None:
                continue
            if used < 0:
                raise SanitizerError(
                    "%s occupancy is negative: %r" % (key, used)
                )
            if used > bound:
                raise SanitizerError(
                    "%s exceeds configured capacity: %r > %r"
                    % (key, used, bound)
                )

    @staticmethod
    def _check_job_conservation(snapshot):
        # Fleet job accounting: every submitted job is in exactly one
        # state at all times (``repro.cluster`` exports the counters from
        # independent increments, so a missed transition trips this).
        states = ("queued", "starting", "running", "completed", "failed")
        for key, submitted in snapshot.items():
            if not key.endswith(".jobs_submitted"):
                continue
            base = key[:-len("jobs_submitted")]
            counts = [snapshot.get(base + "jobs_" + state) for state in states]
            if any(count is None for count in counts):
                continue
            accounted = sum(counts)
            if accounted != submitted:
                raise SanitizerError(
                    "%s*: job states sum to %d but %d were submitted "
                    "(queued=%d starting=%d running=%d completed=%d "
                    "failed=%d)"
                    % ((base, accounted, submitted) + tuple(counts))
                )

    @staticmethod
    def _check_fidelity_conservation(snapshot):
        # Cross-fidelity byte ledger: every DP-allreduce byte a hybrid
        # fleet accounts is attributed to exactly one pricing regime, so
        # fluid + packet must equal the total — fleet-wide and per job
        # (both spell their counters ``dp_bytes_{fluid,packet,total}``).
        for key, total in snapshot.items():
            if not key.endswith("dp_bytes_total"):
                continue
            base = key[:-len("dp_bytes_total")]
            fluid = snapshot.get(base + "dp_bytes_fluid")
            packet = snapshot.get(base + "dp_bytes_packet")
            if fluid is None or packet is None:
                continue
            if fluid + packet != total:
                raise SanitizerError(
                    "%s*: fluid+packet bytes (%d+%d) != total (%d) — "
                    "a congestion epoch was double-counted or dropped"
                    % (base or "dp_bytes_", fluid, packet, total)
                )

    # -- everything ------------------------------------------------------

    def check(self, drained=None):
        """Run every invariant that applies right now.

        ``drained=True`` additionally requires an empty event queue
        (leak detection); ``None`` checks leaks only if the queue is
        already empty — i.e. it never fails mid-run.
        """
        self.check_clock()
        if drained is True:
            self.assert_drained()
        if self.registry is not None:
            self.check_conservation(drained=drained)

    def __repr__(self):
        return "SimSanitizer(attached=%s, checks_run=%d, now=%g)" % (
            self._attached, self.checks_run, self.scheduler.now,
        )

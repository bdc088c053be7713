"""Hybrid-fidelity control: when the fleet deserves packet-level truth.

The fleet prices congestion epochs on the vectorized fluid solver by
default — cheap, and exact for steady-state max-min sharing.  The
interesting behaviour at 1024 hosts is bursty and local in time (link
failures, loss storms, admission stampedes, CC collapse), so
:class:`FidelityController` promotes a *bounded sim-time window* to
packet-level DES when a trigger fires, extends the window when triggers
coalesce, and demotes back to fluid with hysteresis once the window has
been quiet.  ASTRA-sim 3.0 calls this "high fidelity only where it
matters"; here it is the dial ROADMAP item 1 asks for.

Everything is a pure function of trigger (sim-time, kind) sequences:
window boundaries are derived from simulated time only — never wall
clock, never RNG — so hybrid runs stay double-run digest-identical.

The module is deliberately free of ``repro.net`` imports: it is a policy
object the cluster layer owns (``cluster`` may import it; ``net`` may
not import ``cluster`` — the simlint layer DAG enforces that), and the
actual packet pricing lives in :mod:`repro.cluster.fleet`.
"""

import enum

#: The trigger catalogue (see EXPERIMENTS.md "Hybrid fidelity").  Every
#: promotion/extension names one of these kinds in its flight record.
TRIGGER_KINDS = (
    "link-fail",        # inject_link_failure landed on a live route
    "link-heal",        # capacity returning is a transient too
    "loss-inject",      # explicit loss injection started or cleared
    "admission-burst",  # admission queue depth crossed the threshold
    "cc-collapse",      # a priced flow's CC window hit its floor
)

#: Defaults, in simulated seconds.  A failure transient at fleet scale
#: (re-spray + CC re-convergence + queue drain) settles well inside a
#: few seconds of simulated time; hysteresis keeps flapping links from
#: thrashing the engine between fidelities.
DEFAULT_WINDOW_SECONDS = 4.0
DEFAULT_HYSTERESIS_SECONDS = 2.0
DEFAULT_ADMISSION_BURST_DEPTH = 3


class Fidelity(enum.Enum):
    """How congestion epochs are priced."""

    FLUID = "fluid"     # vectorized fluid solver everywhere (default)
    PACKET = "packet"   # packet-level DES everywhere (the costly truth)
    HYBRID = "hybrid"   # fluid + auto-promoted packet windows


class FidelityController:
    """Deterministic promote/extend/demote state machine.

    One instance rides along a :class:`repro.cluster.fleet.FleetSimulation`.
    The fleet reports triggers via :meth:`on_trigger`; the controller
    answers with the action taken (``"promote"``, ``"extend"`` or
    ``None``) and the fleet schedules the demotion callback at
    :meth:`release_time`.  :meth:`active` is the only question the epoch
    loop asks: *is sim-time ``now`` inside a promoted window?*

    Window semantics — all times are simulated seconds:

    * a trigger at ``t`` with no open window opens ``[t, t + window)``;
    * a trigger while ``now < release_time()`` (window still open, or in
      its hysteresis tail) *extends* the window to
      ``max(end, t + window)`` — overlapping triggers coalesce into one
      window instead of stacking;
    * the window stays promoted through its hysteresis tail
      ``[end, end + hysteresis)``; a demotion fires only once no trigger
      has landed for a full hysteresis period;
    * a trigger exactly at ``release_time()`` starts a *new* window (the
      boundary belongs to the demotion).
    """

    def __init__(
        self,
        mode=Fidelity.FLUID,
        window_seconds=DEFAULT_WINDOW_SECONDS,
        hysteresis_seconds=DEFAULT_HYSTERESIS_SECONDS,
    ):
        self.mode = Fidelity(mode)
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if hysteresis_seconds < 0:
            raise ValueError("hysteresis_seconds must be non-negative")
        self.window_seconds = float(window_seconds)
        self.hysteresis_seconds = float(hysteresis_seconds)
        #: Closed windows: ``(start, last-trigger end, demoted-at)``.
        self.windows = []
        self.promotions = 0
        self.extensions = 0
        self.demotions = 0
        self.trigger_counts = {}
        self._window_start = None
        self._window_end = None

    # -- the state machine -------------------------------------------------

    def on_trigger(self, now, kind):
        """Report a trigger; returns ``"promote"``, ``"extend"`` or None.

        Counts every trigger in every mode (the counters are cheap,
        deterministic observability), but only HYBRID mode opens
        windows: FLUID never promotes and PACKET is always promoted.
        """
        self.trigger_counts[kind] = self.trigger_counts.get(kind, 0) + 1
        if self.mode is not Fidelity.HYBRID:
            return None
        release = self.release_time()
        if release is not None and now >= release:
            # The demotion callback for this window has not run yet (it
            # is queued at `release` behind us) — close it here so the
            # late callback sees a fresh window and stands down.
            self._close(release)
        if self._window_end is None:
            self._window_start = now
            self._window_end = now + self.window_seconds
            self.promotions += 1
            return "promote"
        self._window_end = max(self._window_end, now + self.window_seconds)
        self.extensions += 1
        return "extend"

    def note_demotion(self, now):
        """Close the open window if its release time has truly passed.

        Returns True when a window was closed; False for stale callbacks
        (the window was extended after this demotion was scheduled — a
        later callback is already armed at the new release time).
        """
        release = self.release_time()
        if release is None or now < release:
            return False
        self._close(now)
        return True

    def _close(self, at):
        self.windows.append((self._window_start, self._window_end, at))
        self.demotions += 1
        self._window_start = None
        self._window_end = None

    # -- queries -----------------------------------------------------------

    def active(self, now):
        """True when epoch pricing at sim-time ``now`` should be packet."""
        if self.mode is Fidelity.PACKET:
            return True
        if self.mode is Fidelity.FLUID or self._window_end is None:
            return False
        return now < self._window_end + self.hysteresis_seconds

    def release_time(self):
        """When the open window (plus hysteresis) expires; None if closed."""
        if self._window_end is None:
            return None
        return self._window_end + self.hysteresis_seconds

    def window_open(self):
        return self._window_end is not None

    @property
    def triggers(self):
        return sum(self.trigger_counts.values())

    @classmethod
    def coerce(cls, value):
        """Accept a mode string, a :class:`Fidelity`, or a controller."""
        if isinstance(value, cls):
            return value
        return cls(mode=Fidelity(value))

    def __repr__(self):
        return "FidelityController(%s, %d window(s), %d trigger(s))" % (
            self.mode.value, len(self.windows) + int(self.window_open()),
            self.triggers,
        )

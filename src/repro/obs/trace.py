"""Sim-time event tracing with Chrome trace-event (Perfetto) export.

Timestamps are **simulation** time converted to microseconds — load the
exported JSON in https://ui.perfetto.dev (or ``chrome://tracing``) and the
timeline reads in sim time.  Nothing here reads the host clock, so a
trace describes what the simulation did, never how fast it ran.

When tracing is off, components hold ``tracer = None`` and hot paths
pay a single ``is not None`` test.  The scheduler records callbacks
through a per-event hook on its one run loop
(:meth:`repro.sim.engine.EventScheduler.set_tracer`), so a traced run
executes the same dispatch code as an untraced one.
"""

from functools import partial


#: Phase codes from the Chrome trace-event spec.
_PH_COMPLETE = "X"
_PH_INSTANT = "i"
_PH_BEGIN = "B"
_PH_END = "E"
_PH_ASYNC_BEGIN = "b"
_PH_ASYNC_END = "e"
_PH_COUNTER = "C"
_PH_METADATA = "M"


class TraceEvent:
    """One trace-event record; ``ts``/``dur`` are microseconds of sim time."""

    __slots__ = ("name", "cat", "ph", "ts", "dur", "tid", "args", "id")

    def __init__(self, name, cat, ph, ts, tid, dur=None, args=None, id=None):
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.dur = dur
        self.tid = tid
        self.args = args
        self.id = id

    def to_dict(self, pid=1):
        record = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "pid": pid,
            "tid": self.tid,
        }
        if self.dur is not None:
            record["dur"] = self.dur
        if self.args:
            record["args"] = self.args
        if self.id is not None:
            record["id"] = self.id
        return record

    def __repr__(self):
        return "TraceEvent(%r, ph=%s, ts=%.1fus, tid=%d)" % (
            self.name, self.ph, self.ts, self.tid,
        )


class Tracer:
    """Collects sim-time trace events for one run."""

    def __init__(self, process_name="repro-sim"):
        self.process_name = process_name
        self.events = []
        self._tracks = {}       # track name -> tid
        self._open_spans = {}   # tid -> [span name stack]

    # -- tracks ----------------------------------------------------------

    def track(self, name):
        """The numeric tid for a named track, allocating on first use."""
        tid = self._tracks.get(name)
        if tid is None:
            tid = len(self._tracks) + 1
            self._tracks[name] = tid
        return tid

    @staticmethod
    def _us(ts_seconds):
        return ts_seconds * 1e6

    # -- emission --------------------------------------------------------

    def complete(self, name, start, end, track="sim", cat="sim", args=None):
        """A span with both edges known, in sim seconds."""
        if end < start:
            raise ValueError("span %r ends (%g) before it starts (%g)"
                             % (name, end, start))
        self.events.append(TraceEvent(
            name, cat, _PH_COMPLETE, self._us(start), self.track(track),
            dur=self._us(end - start), args=args,
        ))

    def instant(self, name, ts, track="sim", cat="sim", args=None):
        self.events.append(TraceEvent(
            name, cat, _PH_INSTANT, self._us(ts), self.track(track), args=args,
        ))

    def counter(self, name, ts, values, track="counters"):
        """A counter sample; ``values`` is ``{series: number}``."""
        self.events.append(TraceEvent(
            name, "counter", _PH_COUNTER, self._us(ts), self.track(track),
            args=dict(values),
        ))

    def begin(self, name, ts, track="sim", cat="sim", args=None):
        """Open a nested synchronous span; close with :meth:`end`."""
        tid = self.track(track)
        self._open_spans.setdefault(tid, []).append(name)
        self.events.append(TraceEvent(name, cat, _PH_BEGIN, self._us(ts), tid,
                                      args=args))

    def end(self, ts, track="sim", cat="sim"):
        tid = self.track(track)
        stack = self._open_spans.get(tid)
        if not stack:
            raise ValueError("end() with no open span on track %r" % track)
        name = stack.pop()
        self.events.append(TraceEvent(name, cat, _PH_END, self._us(ts), tid))

    def async_begin(self, name, id, ts, track="sim", cat="async", args=None):
        """Open a span that may outlive the emitting callback (a flow)."""
        self.events.append(TraceEvent(
            name, cat, _PH_ASYNC_BEGIN, self._us(ts), self.track(track),
            args=args, id=str(id),
        ))

    def async_end(self, name, id, ts, track="sim", cat="async", args=None):
        self.events.append(TraceEvent(
            name, cat, _PH_ASYNC_END, self._us(ts), self.track(track),
            args=args, id=str(id),
        ))

    # -- scheduler hook --------------------------------------------------

    def record_callback(self, ts, name, queue_depth=None):
        """One executed scheduler callback at sim instant ``ts``.

        Called by the scheduler's tracer hook after each callback.  The event
        lands on the ``scheduler`` track as a zero-width span.
        """
        self.events.append(TraceEvent(
            name, "callback", _PH_COMPLETE, self._us(ts),
            self.track("scheduler"), dur=0.0,
        ))
        if queue_depth is not None:
            self.counter("scheduler.queue_depth", ts, {"events": queue_depth})

    # -- export ----------------------------------------------------------

    def to_chrome(self):
        """The ``{"traceEvents": [...]}`` dict, sorted by timestamp.

        Sorting is stable, so events at equal sim time keep emission order
        — timestamps are monotone on every track by construction.
        """
        records = [
            TraceEvent("process_name", "__metadata", _PH_METADATA, 0, 0,
                       args={"name": self.process_name}).to_dict()
        ]
        for name, tid in sorted(self._tracks.items(), key=lambda kv: kv[1]):
            records.append(TraceEvent(
                "thread_name", "__metadata", _PH_METADATA, 0, tid,
                args={"name": name},
            ).to_dict())
        records.extend(
            event.to_dict() for event in sorted(self.events, key=lambda e: e.ts)
        )
        return {"traceEvents": records, "displayTimeUnit": "ms"}

    def clear(self):
        self.events = []
        self._open_spans.clear()

    def __len__(self):
        return len(self.events)

    def __repr__(self):
        return "Tracer(%d events, %d tracks)" % (len(self.events), len(self._tracks))


def callback_name(callback):
    """Human-readable label for a scheduler callback.

    A :func:`functools.partial` is labelled by the function it wraps
    (``PacketNetSim._hop``, ``MessageFlow._on_ack``, ...).
    """
    while isinstance(callback, partial):
        callback = callback.func
    name = getattr(callback, "__qualname__", None)
    if name is None:
        name = type(callback).__name__
    if name == "<lambda>" or name.endswith(".<lambda>"):
        # Lambdas carry no useful qualname; label by defining module.
        module = getattr(callback, "__module__", "") or ""
        return "%s.<lambda>" % module.rsplit(".", 1)[-1] if module else "<lambda>"
    return name

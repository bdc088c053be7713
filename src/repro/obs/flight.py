"""Fleet flight recorder: a bounded ring buffer of structured sim events.

The operational analog of an aircraft flight recorder: every layer of
the stack reports its rare-but-diagnostic moments — retransmits,
path-down/up transitions, CC window collapses, admission rejects, job
aborts, congestion-epoch repricing, container churn — as typed,
plain-data events stamped with **simulated** time.  The buffer is
bounded (oldest events evict first) so it is cheap enough to leave on
for an entire fleet run, and everything in it is canonically
JSON-serializable, so the log exports as JSON lines or Perfetto instant
tracks (:func:`repro.obs.export.write_perfetto_trace`) and digests into
the determinism harness (:func:`FlightRecorder.digest`).

Recording is *passive*: ``record()`` never draws randomness, never
schedules events, and never reads the wall clock, so attaching a
recorder to a seeded run cannot perturb its metrics or trace digests —
the property ``repro.obs.determinism`` asserts.  Components hold
``flight = None`` by default and guard each hook with one
``is not None`` test on a rare path, so a run without a recorder pays
nothing on the hot path.

Payloads must be plain data (scalars, lists, dicts — no sets, lambdas,
or generators); simlint's ``A-flight-plain`` rule enforces that at every
``record()`` call site.
"""

import hashlib
import json
from collections import deque

#: Recognized severities, mildest first (anything else is rejected).
_SEVERITIES = ("info", "warn", "error")

#: Default ring capacity: large enough for a full churn run's rare
#: events, small enough to keep an always-on recorder bounded.
_DEFAULT_CAPACITY = 4096


class FlightEvent:
    """One recorded moment: sim time, layer, kind, entity, payload."""

    __slots__ = ("t", "layer", "kind", "entity", "severity", "payload")

    def __init__(self, t, layer, kind, entity, severity, payload):
        self.t = t
        self.layer = layer
        self.kind = kind
        self.entity = entity
        self.severity = severity
        self.payload = payload

    def to_dict(self):
        record = {
            "t": self.t,
            "layer": self.layer,
            "kind": self.kind,
            "entity": self.entity,
            "severity": self.severity,
        }
        if self.payload:
            record["payload"] = self.payload
        return record

    def __repr__(self):
        return "FlightEvent(t=%.6f, %s/%s, %r, %s)" % (
            self.t, self.layer, self.kind, self.entity, self.severity,
        )


class FlightRecorder:
    """Bounded, always-ordered ring buffer of :class:`FlightEvent`.

    ``capacity`` bounds memory; once full, the oldest event is evicted
    per append and counted in :attr:`dropped`.  Components that record
    nothing hold ``flight = None``.
    """

    def __init__(self, capacity=_DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("flight capacity must be positive: %r" % capacity)
        self.capacity = capacity
        self._events = deque(maxlen=capacity)
        self.recorded = 0
        self.dropped = 0
        self._severity_counts = {name: 0 for name in _SEVERITIES}

    # -- recording -------------------------------------------------------

    def record(self, t, layer, kind, entity=None, severity="info", **payload):
        """Append one event at sim time ``t``; returns the event.

        ``payload`` keys must be plain data — the JSONL/Perfetto export
        and the determinism digest both canonicalize them.
        """
        if severity not in self._severity_counts:
            raise ValueError(
                "unknown severity %r (have %s)"
                % (severity, ", ".join(_SEVERITIES))
            )
        events = self._events
        if len(events) == self.capacity:
            self.dropped += 1
        event = FlightEvent(t, layer, kind, entity, severity, payload)
        events.append(event)
        self.recorded += 1
        self._severity_counts[severity] += 1
        return event

    # -- access ----------------------------------------------------------

    def events(self):
        """The buffered events as plain dicts, oldest first."""
        return [event.to_dict() for event in self._events]

    def by_kind(self, kind):
        """Buffered events of one kind, as plain dicts, oldest first."""
        return [e.to_dict() for e in self._events if e.kind == kind]

    def severity_counts(self):
        """``{severity: count}`` over everything ever recorded."""
        return dict(self._severity_counts)

    def __len__(self):
        return len(self._events)

    # -- export ----------------------------------------------------------

    def dump_jsonl(self, path):
        """Write the buffer as JSON lines; returns the line count."""
        events = self.events()
        with open(path, "w") as handle:
            for record in events:
                handle.write(json.dumps(record, sort_keys=True,
                                        separators=(",", ":")))
                handle.write("\n")
        return len(events)

    def digest(self):
        """SHA-256 hex digest of the canonicalized event stream.

        The determinism harness compares this across double runs: same
        seed, same flight log, bit for bit.
        """
        payload = json.dumps(
            self.events(), sort_keys=True, separators=(",", ":"),
            default=repr,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- telemetry -------------------------------------------------------

    def snapshot(self):
        snap = {
            "recorded": self.recorded,
            "dropped": self.dropped,
            "buffered": len(self._events),
            "capacity": self.capacity,
        }
        for name, count in self._severity_counts.items():
            snap["severity.%s" % name] = count
        return snap

    def register_metrics(self, registry, prefix="flight"):
        registry.add_provider(prefix, self.snapshot)
        return registry

    def __repr__(self):
        return "FlightRecorder(%d/%d buffered, %d recorded, %d dropped)" % (
            len(self._events), self.capacity, self.recorded, self.dropped,
        )

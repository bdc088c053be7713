"""SLO monitors and failure->impact incident attribution.

Per-entity (job, tenant, flow) :class:`SloTracker` objects consume raw
metric observations — goodput, per-iteration completion latency,
retransmission rate, admission wait — through **deterministic windowed
reducers**: an exponentially-weighted mean/variance (z-scores) plus a
sim-time sliding window (nearest-rank p99).  Everything is keyed on
simulated time; no wall clock, no randomness, so two seeded runs emit
byte-identical breach streams (simlint keeps it that way).

Breaches and recoveries are emitted as events into a
:class:`repro.obs.flight.FlightRecorder`; on top of the combined event
log, :func:`build_incidents` correlates each injected fault (link
failure, loss injection) with the entities whose SLOs breached inside
its window, producing the causal record the fleet health report renders:
``fault -> affected entities -> impact magnitude -> recovery time``.

This module is pure infrastructure: events flow *in* through hooks
(``cluster.fleet`` feeds trackers, ``net`` feeds the recorder) — it
never imports upward into the domain layers.
"""

import math

#: Default sim-time window for the p99 reducer (seconds).
_DEFAULT_WINDOW_SECONDS = 20.0

#: Default EWMA weight for new observations.
_DEFAULT_EWMA_ALPHA = 0.4

#: Default job policy shape, relative to a job's isolated baseline
#: (:func:`default_job_policy`): goodput may sag to 60% of isolated,
#: p99 per-iteration latency may stretch to 1.25x isolated, queue wait
#: is budgeted at 30 simulated seconds.
_SLO_GOODPUT_FRACTION = 0.6
SLO_LATENCY_MULTIPLE = 1.25
_SLO_WAIT_BUDGET_SECONDS = 30.0

#: Flight-event kinds this module emits / correlates on.
_KIND_BREACH = "slo-breach"
_KIND_RECOVER = "slo-recover"

#: Fault kinds that open an incident window, and the kinds that close it.
_FAULT_KINDS = ("link-fail", "path-down", "loss-inject")
_HEAL_KINDS = ("link-heal", "path-up")

#: Event kinds that end an entity's impact even without an explicit SLO
#: recovery (a job that finishes while degraded has, operationally,
#: stopped being impacted).
_ENTITY_CLEAR_KINDS = (_KIND_RECOVER, "job-complete")


class Ewma:
    """Exponentially-weighted mean and variance (deterministic, O(1)).

    The variance recurrence is the standard EWMA one
    (West 1979): ``var' = (1-a) * (var + a * delta^2)``.
    """

    __slots__ = ("alpha", "mean", "var", "count")

    def __init__(self, alpha=_DEFAULT_EWMA_ALPHA):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("EWMA alpha must be in (0, 1]: %r" % alpha)
        self.alpha = alpha
        self.mean = None
        self.var = 0.0
        self.count = 0

    def update(self, value):
        self.count += 1
        if self.mean is None:
            self.mean = float(value)
            return self.mean
        delta = value - self.mean
        self.mean += self.alpha * delta
        self.var = (1.0 - self.alpha) * (self.var + self.alpha * delta * delta)
        return self.mean

    def zscore(self, value):
        """Standard score of ``value`` against the running estimate."""
        if self.mean is None or self.var <= 0.0:
            return 0.0
        return (value - self.mean) / math.sqrt(self.var)

    def __repr__(self):
        return "Ewma(alpha=%g, mean=%s, n=%d)" % (
            self.alpha, self.mean, self.count,
        )


class SimWindow:
    """Sliding sim-time window of (t, value) samples with p99/mean."""

    __slots__ = ("window", "samples")

    def __init__(self, window=_DEFAULT_WINDOW_SECONDS):
        if window <= 0:
            raise ValueError("window must be positive: %r" % window)
        self.window = window
        self.samples = []  # [(t, value)] in observation order

    def add(self, t, value):
        self.samples.append((t, value))
        horizon = t - self.window
        # Observations arrive in sim-time order, so pruning is a prefix.
        drop = 0
        samples = self.samples
        while drop < len(samples) and samples[drop][0] < horizon:
            drop += 1
        if drop:
            del samples[:drop]

    def values(self):
        return [value for _, value in self.samples]

    def mean(self):
        samples = self.samples
        if not samples:
            return 0.0
        return sum(value for _, value in samples) / len(samples)

    def quantile(self, q):
        """Deterministic nearest-rank quantile over the window."""
        values = sorted(value for _, value in self.samples)
        if not values:
            return 0.0
        rank = min(len(values) - 1, int(q * len(values)))
        return values[rank]

    def __len__(self):
        return len(self.samples)

    def __repr__(self):
        return "SimWindow(%gs, %d samples)" % (self.window, len(self.samples))


class SloPolicy:
    """Per-entity SLO thresholds; ``None`` disables a dimension."""

    __slots__ = ("goodput_floor", "latency_p99_ceiling",
                 "retx_rate_ceiling", "admission_wait_budget")

    def __init__(self, goodput_floor=None, latency_p99_ceiling=None,
                 retx_rate_ceiling=None, admission_wait_budget=None):
        self.goodput_floor = goodput_floor
        self.latency_p99_ceiling = latency_p99_ceiling
        self.retx_rate_ceiling = retx_rate_ceiling
        self.admission_wait_budget = admission_wait_budget

    #: metric name -> (policy attribute, sense, reducer).  ``min`` means
    #: breach-when-below; ``ewma`` smooths before comparing, ``p99``
    #: compares the windowed nearest-rank p99, ``raw`` the observation.
    METRICS = {
        "goodput": ("goodput_floor", "min", "ewma"),
        "latency": ("latency_p99_ceiling", "max", "p99"),
        "retx_rate": ("retx_rate_ceiling", "max", "ewma"),
        "admission_wait": ("admission_wait_budget", "max", "raw"),
    }

    def limit(self, metric):
        """``(limit, sense, reducer)`` for ``metric`` (limit may be None)."""
        attr, sense, reducer = self.METRICS[metric]
        return getattr(self, attr), sense, reducer

    def to_dict(self):
        return {
            "goodput_floor": self.goodput_floor,
            "latency_p99_ceiling": self.latency_p99_ceiling,
            "retx_rate_ceiling": self.retx_rate_ceiling,
            "admission_wait_budget": self.admission_wait_budget,
        }

    def __repr__(self):
        parts = ", ".join(
            "%s=%g" % (key, value)
            for key, value in sorted(self.to_dict().items())
            if value is not None
        )
        return "SloPolicy(%s)" % parts


def default_job_policy(iso_iter_seconds):
    """A job policy anchored on its isolated per-iteration baseline."""
    if iso_iter_seconds is None or iso_iter_seconds <= 0:
        return SloPolicy(admission_wait_budget=_SLO_WAIT_BUDGET_SECONDS)
    return SloPolicy(
        goodput_floor=_SLO_GOODPUT_FRACTION / iso_iter_seconds,
        latency_p99_ceiling=SLO_LATENCY_MULTIPLE * iso_iter_seconds,
        admission_wait_budget=_SLO_WAIT_BUDGET_SECONDS,
    )


class _MetricState:
    """Reducers + breach state machine for one (entity, metric)."""

    __slots__ = ("ewma", "window", "breach_start", "breach_count",
                 "breach_seconds", "last_value", "last_stat", "peak_ratio")

    def __init__(self, alpha, window):
        self.ewma = Ewma(alpha)
        self.window = SimWindow(window)
        self.breach_start = None
        self.breach_count = 0
        self.breach_seconds = 0.0
        self.last_value = None
        self.last_stat = None
        self.peak_ratio = 0.0


class SloTracker:
    """Breach state machine for one entity across every SLO dimension.

    Feed raw observations through :meth:`observe`; breach/recover
    transitions are emitted as plain event dicts (and recorded into the
    attached flight recorder under layer ``"slo"``).
    """

    def __init__(self, entity, policy, flight=None,
                 window=_DEFAULT_WINDOW_SECONDS, alpha=_DEFAULT_EWMA_ALPHA):
        self.entity = entity
        self.policy = policy
        self.flight = flight
        self.window = window
        self.alpha = alpha
        self._metrics = {}  # metric name -> _MetricState
        self.events = []    # every breach/recover emitted, in order

    def _state(self, metric):
        state = self._metrics.get(metric)
        if state is None:
            state = _MetricState(self.alpha, self.window)
            self._metrics[metric] = state
        return state

    def observe(self, t, metric, value):
        """Consume one observation; returns the emitted event dicts."""
        limit, sense, reducer = self.policy.limit(metric)
        state = self._state(metric)
        zscore = state.ewma.zscore(value)
        smoothed = state.ewma.update(value)
        state.window.add(t, value)
        state.last_value = value
        if limit is None:
            return []
        if reducer == "ewma":
            stat = smoothed
        elif reducer == "p99":
            stat = state.window.quantile(0.99)
        else:
            stat = value
        state.last_stat = stat
        breaching = stat < limit if sense == "min" else stat > limit
        emitted = []
        if breaching:
            ratio = (limit / stat if sense == "min" and stat > 0
                     else stat / limit if limit > 0 else 0.0)
            if ratio > state.peak_ratio:
                state.peak_ratio = ratio
            if state.breach_start is None:
                state.breach_start = t
                state.breach_count += 1
                emitted.append(self._emit(
                    t, _KIND_BREACH, "warn",
                    metric=metric, value=round(stat, 9),
                    limit=round(limit, 9), ratio=round(ratio, 6),
                    zscore=round(zscore, 6),
                ))
        elif state.breach_start is not None:
            seconds = t - state.breach_start
            state.breach_seconds += seconds
            state.breach_start = None
            emitted.append(self._emit(
                t, _KIND_RECOVER, "info",
                metric=metric, value=round(stat, 9),
                limit=round(limit, 9), breach_seconds=round(seconds, 9),
            ))
        return emitted

    def _emit(self, t, kind, severity, **payload):
        event = {
            "t": t, "layer": "slo", "kind": kind,
            "entity": self.entity, "severity": severity,
            "payload": payload,
        }
        self.events.append(event)
        if self.flight is not None:
            self.flight.record(t, "slo", kind, entity=self.entity,
                               severity=severity, **payload)
        return event

    def breached(self, metric=None):
        """Is the entity currently in breach (of ``metric``, or any)?"""
        if metric is not None:
            state = self._metrics.get(metric)
            return state is not None and state.breach_start is not None
        return any(
            state.breach_start is not None
            for state in self._metrics.values()
        )

    def snapshot(self):
        snap = {"entity": self.entity, "policy": self.policy.to_dict()}
        metrics = {}
        for name in sorted(self._metrics):
            state = self._metrics[name]
            metrics[name] = {
                "last_value": state.last_value,
                "last_stat": state.last_stat,
                "breached": state.breach_start is not None,
                "breaches": state.breach_count,
                "breach_seconds": round(state.breach_seconds, 9),
                "peak_ratio": round(state.peak_ratio, 6),
            }
        snap["metrics"] = metrics
        snap["breached"] = self.breached()
        return snap

    def __repr__(self):
        return "SloTracker(%r, %d metrics, breached=%s)" % (
            self.entity, len(self._metrics), self.breached(),
        )


class SloBoard:
    """All of a run's trackers, keyed by entity, sharing one recorder."""

    def __init__(self, flight=None, window=_DEFAULT_WINDOW_SECONDS,
                 alpha=_DEFAULT_EWMA_ALPHA):
        self.flight = flight
        self.window = window
        self.alpha = alpha
        self._trackers = {}
        #: Entity registration order — iteration stays deterministic.
        self._order = []

    def tracker(self, entity, policy=None):
        """Get (or, with ``policy``, create) the tracker for ``entity``."""
        tracker = self._trackers.get(entity)
        if tracker is None:
            if policy is None:
                raise KeyError("no tracker for %r (pass a policy)" % entity)
            tracker = SloTracker(entity, policy, flight=self.flight,
                                 window=self.window, alpha=self.alpha)
            self._trackers[entity] = tracker
            self._order.append(entity)
        return tracker

    def observe(self, t, entity, metric, value):
        """Feed one observation to an already-registered entity."""
        return self._trackers[entity].observe(t, metric, value)

    def entities(self):
        return list(self._order)

    def breached_entities(self):
        return [name for name in self._order
                if self._trackers[name].breached()]

    def snapshot(self):
        return {
            "entities": len(self._trackers),
            "breached": len(self.breached_entities()),
            "trackers": {
                name: self._trackers[name].snapshot()
                for name in self._order
            },
        }

    def __contains__(self, entity):
        return entity in self._trackers

    def __len__(self):
        return len(self._trackers)

    def __repr__(self):
        return "SloBoard(%d trackers, %d breached)" % (
            len(self._trackers), len(self.breached_entities()),
        )


# -- incident attribution -------------------------------------------------


def build_incidents(events, grace=5.0):
    """Correlate faults with the SLO breaches inside their windows.

    ``events`` is a flight-event dict list (``FlightRecorder.events()``),
    assumed time-ordered.  Each fault event (:data:`_FAULT_KINDS`) opens
    an incident window ``[fault.t, heal.t + grace]`` (end of log when it
    never heals); every :data:`_KIND_BREACH` inside the window joins the
    incident's affected set with its impact magnitude (peak
    breach-to-limit ratio) and recovery time (first clearing event —
    SLO recovery or job completion — after the first breach).
    """
    if not events:
        return []
    last_t = events[-1]["t"]
    incidents = []
    for index, event in enumerate(events):
        if event["kind"] not in _FAULT_KINDS:
            continue
        fault_t = event["t"]
        healed_t = None
        for later in events[index + 1:]:
            if later["kind"] in _HEAL_KINDS and later["entity"] == event["entity"]:
                healed_t = later["t"]
                break
        window_end = (healed_t if healed_t is not None else last_t) + grace
        affected = {}
        order = []
        epochs = 0
        for later in events[index:]:
            t = later["t"]
            if t > window_end:
                break
            if later["kind"] == "congestion-epoch":
                epochs += 1
            if later["kind"] != _KIND_BREACH:
                continue
            entity = later["entity"]
            payload = later.get("payload", {})
            entry = affected.get(entity)
            if entry is None:
                entry = {
                    "entity": entity,
                    "metrics": [],
                    "impact": 0.0,
                    "first_breach_t": t,
                    "recovered_t": None,
                    "recovery_seconds": None,
                }
                affected[entity] = entry
                order.append(entity)
            metric = payload.get("metric")
            if metric is not None and metric not in entry["metrics"]:
                entry["metrics"].append(metric)
            ratio = payload.get("ratio", 0.0)
            if ratio > entry["impact"]:
                entry["impact"] = ratio
        for entity in order:
            entry = affected[entity]
            for later in events:
                if (later["t"] > entry["first_breach_t"]
                        and later["entity"] == entity
                        and later["kind"] in _ENTITY_CLEAR_KINDS):
                    entry["recovered_t"] = later["t"]
                    entry["recovery_seconds"] = later["t"] - fault_t
                    break
        incidents.append({
            "fault": {
                "kind": event["kind"],
                "t": fault_t,
                "entity": event["entity"],
                "healed_t": healed_t,
                "duration": (healed_t - fault_t
                             if healed_t is not None else None),
            },
            "window": {"start": fault_t, "end": window_end},
            "congestion_epochs": epochs,
            "affected": [affected[entity] for entity in order],
        })
    return incidents


def merge_incident_reports(reports):
    """Merge per-task incident lists deterministically, in input order.

    ``reports`` is ``[(source key, incident list), ...]`` — spec order
    from a :class:`repro.runner.pool.RunReport` — and the merge simply
    annotates and concatenates, so pooled and sequential runs produce
    byte-identical merged output.
    """
    merged = []
    for source, incidents in reports:
        for incident in incidents or []:
            entry = dict(incident)
            entry["source"] = source
            merged.append(entry)
    return merged


def build_health_document(counters, job_rows, board=None, flight=None,
                          grace=5.0):
    """The exportable fleet health report (terminal + JSON + CI artifact).

    ``counters`` is the fleet's counter snapshot, ``job_rows`` the
    per-job result rows; the SLO board and flight recorder contribute
    breach status, the incident list, and the flight-log digest.
    """
    document = {
        "generator": "repro.obs.slo",
        "fleet": dict(counters),
        "jobs": list(job_rows),
        "slo": board.snapshot() if board is not None else {},
        "incidents": (build_incidents(flight.events(), grace=grace)
                      if flight is not None else []),
        "flight": {},
    }
    if flight is not None:
        document["flight"] = {
            "digest": flight.digest(),
            "recorded": flight.recorded,
            "dropped": flight.dropped,
            "buffered": len(flight),
            "severities": flight.severity_counts(),
        }
    return document

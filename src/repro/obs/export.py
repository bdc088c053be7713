"""File exporters: Chrome trace JSON and metrics snapshots (JSON).

The trace file loads directly in https://ui.perfetto.dev or
``chrome://tracing``; the metrics JSON is the Neohost-style dump the
acceptance experiments diff.  :func:`write_perfetto_trace` merges the
event tracer, the time-series sampler, and the flight recorder into one
trace: sampled series render as counter tracks, flight events as instant
markers plus a running severity counter.
"""

import json

_SEVERITY_SCOPE = "t"  # instant-event scope: thread


def write_chrome_trace(tracer, path):
    """Write ``tracer`` as ``{"traceEvents": [...]}``; returns event count."""
    with open(path, "w") as handle:
        json.dump(tracer.to_chrome(), handle)
    return len(tracer)


def perfetto_document(tracer=None, sampler=None, flight=None):
    """One merged Chrome trace-event document for Perfetto.

    ``tracer`` events come first (their tids preserved); sampled series
    and flight events are appended on fresh tids, each internally
    time-ordered, so the per-track monotonicity contract
    (:func:`load_chrome_trace`) holds without a global re-sort.
    """
    if tracer is not None:
        document = tracer.to_chrome()
    else:
        document = {"traceEvents": [], "displayTimeUnit": "ms"}
    events = document["traceEvents"]
    next_tid = max((event.get("tid", 0) for event in events), default=0) + 1

    def add_track(name):
        nonlocal next_tid
        tid = next_tid
        next_tid += 1
        events.append({
            "name": "thread_name", "cat": "__metadata", "ph": "M",
            "ts": 0, "pid": 1, "tid": tid, "args": {"name": name},
        })
        return tid

    if sampler is not None and sampler.samples:
        tid = add_track("sampled counters")
        for name in sampler.columns():
            for t, values in sampler.samples:
                if name not in values:
                    continue
                events.append({
                    "name": name, "cat": "counter", "ph": "C",
                    "ts": t * 1e6, "pid": 1, "tid": tid,
                    "args": {"value": values[name]},
                })
    if flight is not None and len(flight):
        # A probe records across several schedulers, so the buffer is not
        # globally time-ordered; a stable sort restores monotonicity
        # without reordering same-instant events.
        records = sorted(flight.events(), key=lambda event: event["t"])
        tid = add_track("flight recorder")
        severity_tid = add_track("flight severity")
        totals = {}
        for record in records:
            ts = record["t"] * 1e6
            args = {
                "layer": record["layer"],
                "severity": record["severity"],
            }
            if record.get("entity") is not None:
                args["entity"] = record["entity"]
            args.update(record.get("payload", {}))
            events.append({
                "name": record["kind"], "cat": "flight", "ph": "i",
                "ts": ts, "pid": 1, "tid": tid, "s": _SEVERITY_SCOPE,
                "args": args,
            })
            totals[record["severity"]] = totals.get(record["severity"], 0) + 1
            events.append({
                "name": "flight.severity", "cat": "counter", "ph": "C",
                "ts": ts, "pid": 1, "tid": severity_tid,
                "args": dict(sorted(totals.items())),
            })
    return document


def write_perfetto_trace(path, tracer=None, sampler=None, flight=None):
    """Write the merged Perfetto trace; returns the total record count."""
    document = perfetto_document(tracer=tracer, sampler=sampler,
                                 flight=flight)
    with open(path, "w") as handle:
        json.dump(document, handle)
    return len(document["traceEvents"])


def metrics_document(registry):
    """The exportable JSON document for one registry snapshot."""
    snapshot = registry.snapshot()
    return {
        "generator": "repro.obs",
        "registry": registry.name,
        "families": sorted({name.split(".", 1)[0] for name in snapshot}),
        "metrics": snapshot,
    }


def write_metrics_json(registry, path):
    """Dump the registry snapshot as JSON; returns the metric count."""
    document = metrics_document(registry)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    return len(document["metrics"])


def load_chrome_trace(path):
    """Load and validate a Chrome trace file (used by tests and tooling).

    Raises ``ValueError`` if the document is not a trace-event container
    or any track's timestamps go backwards.
    """
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("%s is not a Chrome trace-event document" % path)
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    last_ts = {}
    for event in events:
        if event.get("ph") == "M":
            continue
        key = (event.get("pid"), event.get("tid"))
        ts = event["ts"]
        if key in last_ts and ts < last_ts[key]:
            raise ValueError(
                "track %r timestamps regress: %g after %g" % (key, ts, last_ts[key])
            )
        last_ts[key] = ts
    return document

"""Unified observability: metrics registry, sim-time tracing, exporters.

The reproduction's Neohost/pcm-iio analog (Section 4 of the paper leans
on both to diagnose the Figure 8 regressions):

* :mod:`repro.obs.metrics` — ``Counter``/``Gauge``/``Histogram``
  instruments and snapshot providers in a :class:`MetricsRegistry`;
* :mod:`repro.obs.trace` — sim-time span/instant/counter events with
  Chrome trace-event (Perfetto) export;
* :mod:`repro.obs.sampler` — fixed-cadence gauge sampling (the Figure
  9/10 time series) with JSON/CSV dumps;
* :mod:`repro.obs.export` — file writers and trace validation;
* :mod:`repro.obs.flight` — the bounded flight recorder of structured
  rare events (retransmits, link failures, job aborts, churn);
* :mod:`repro.obs.slo` — per-entity SLO trackers and the
  fault -> affected -> impact -> recovery incident builder;
* :mod:`repro.obs.probe` — the canned full-stack run behind
  ``python -m repro metrics`` (imported lazily; pulls in the whole
  stack).
"""

from repro.obs.export import (
    load_chrome_trace,
    metrics_document,
    perfetto_document,
    write_chrome_trace,
    write_metrics_json,
    write_perfetto_trace,
)
from repro.obs.flight import FlightEvent, FlightRecorder
from repro.obs.slo import (
    SloBoard,
    SloPolicy,
    SloTracker,
    build_health_document,
    build_incidents,
    default_job_policy,
    merge_incident_reports,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS_US,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    flatten,
    get_registry,
    set_registry,
)
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.trace import TraceEvent, Tracer

__all__ = [
    "load_chrome_trace",
    "metrics_document",
    "perfetto_document",
    "write_chrome_trace",
    "write_metrics_json",
    "write_perfetto_trace",
    "FlightEvent",
    "FlightRecorder",
    "SloBoard",
    "SloPolicy",
    "SloTracker",
    "build_health_document",
    "build_incidents",
    "default_job_policy",
    "merge_incident_reports",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_US",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "flatten",
    "get_registry",
    "set_registry",
    "TimeSeriesSampler",
    "TraceEvent",
    "Tracer",
]

"""Which public calls the traced run wraps, and the per-layer metrics.

Spans (self time = duration minus child spans):

=================  ===========================================
span               wrapped call
=================  ===========================================
memory.touch       ``FleetHost.touch`` (shared-ATC page touch)
fluid.run          ``FluidSimulation.run``
packet.run         ``PacketNetSim.run``
packet.run_flows   ``repro.net.run_flows``
cluster.run        ``FleetSimulation.run``
host.launch        ``StellarHost.launch_container``
host.pin           ``StellarHost.dma_prepare``
training.train     ``TrainingSimulation.train``
traces.run         ``TraceReplayer.run``
=================  ===========================================

Two more wrappers only count: ``EventScheduler.run`` (events executed,
for ``sim.events``) and ``MessageFlow.__init__``.  The flows whose
retransmissions and goodput the packet metrics sum are those made during
the run (the fleet's pricing windows) plus those handed to ``run_flows``
(built beforehand, as the spray's are).  Everything the
spans do not cover is ``other.self_s``, so the self times add up to the
traced wall time.
"""

from unittest import mock

import repro.net as net
import repro.net.packet_sim as packet_sim
from repro.cluster.fleet import FleetSimulation
from repro.cluster.host import FleetHost
from repro.core.stellar import StellarHost
from repro.net.fluid_sim import FluidSimulation
from repro.sim.engine import EventScheduler
from repro.traces.replay import TraceReplayer
from repro.training.trainer import TrainingSimulation

from simbench.tracing import has_ancestor, observed, self_time_by_name, spanned

#: ``(name, unit, better)`` for every per-layer metric, in report order.
#: ``sim_s`` is simulated seconds; ``s`` alone is host seconds.
PER_LAYER = (
    ("memory.touch_s", "s", "lower"),
    ("memory.touch_calls", "count", "lower"),
    ("memory.pages_touched", "count", "lower"),
    ("memory.atc_hit_ratio", "ratio", "higher"),
    ("fluid.run_s", "s", "lower"),
    ("fluid.runs", "count", "lower"),
    ("fluid.steps", "count", "lower"),
    ("packet.run_s", "s", "lower"),
    ("packet.runs", "count", "lower"),
    ("packet.events", "count", "lower"),
    ("packet.packets_sent", "count", "higher"),
    ("packet.delivered_ratio", "ratio", "higher"),
    ("packet.retransmissions", "count", "lower"),
    ("packet.goodput_gbps", "Gbit/s", "higher"),
    ("sim.events", "count", "lower"),
    ("cluster.self_s", "s", "lower"),
    ("cluster.epochs", "count", "lower"),
    ("cluster.fluid_solves", "count", "lower"),
    ("cluster.packet_solves", "count", "lower"),
    ("cluster.promotions", "count", "lower"),
    ("cluster.jobs_completed", "count", "higher"),
    ("cluster.sim_makespan_s", "sim_s", "lower"),
    ("host.launch_s", "s", "lower"),
    ("host.launches", "count", "lower"),
    ("host.pin_s", "s", "lower"),
    ("training.train_s", "s", "lower"),
    ("training.train_calls", "count", "lower"),
    ("traces.self_s", "s", "lower"),
    ("traces.ops", "count", "higher"),
    ("traces.pricing_events", "count", "lower"),
    ("traces.makespan_s", "sim_s", "lower"),
    ("other.self_s", "s", "lower"),
    ("obs.traced_wall_s", "s", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: The self-time rows; they sum to ``obs.traced_wall_s``.
SELF_TIMES = (
    "memory.touch_s", "fluid.run_s", "packet.run_s", "cluster.self_s",
    "host.launch_s", "host.pin_s", "training.train_s", "traces.self_s",
    "other.self_s",
)

#: ``(owner, attribute, span name)`` for every spanned call.
SPANNED = (
    (FleetHost, "touch", "memory.touch"),
    (FluidSimulation, "run", "fluid.run"),
    (packet_sim.PacketNetSim, "run", "packet.run"),
    (net, "run_flows", "packet.run_flows"),
    (packet_sim, "run_flows", "packet.run_flows"),
    (FleetSimulation, "run", "cluster.run"),
    (StellarHost, "launch_container", "host.launch"),
    (StellarHost, "dma_prepare", "host.pin"),
    (TrainingSimulation, "train", "training.train"),
    (TraceReplayer, "run", "traces.run"),
)


class Instrumentation:
    """The wrappers of one traced run and the counts they gather."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.pages_touched = 0
        self.fluid_steps = 0
        self.packet_events = 0
        self.sim_events = 0
        self.packet_sims = {}
        self.flows = {}

    def install(self, stack):
        """Wrap every call in ``SPANNED`` plus the two counters; the
        originals come back when ``stack`` (an ``ExitStack``) closes."""
        hooks = {
            "memory.touch": self._on_touch,
            "fluid.run": self._on_fluid_run,
            "packet.run": self._on_packet_run,
            "packet.run_flows": self._on_run_flows,
        }
        wrappers = [
            (owner, attr, spanned(self.recorder, name, getattr(owner, attr),
                                  hooks.get(name)))
            for owner, attr, name in SPANNED
        ]
        wrappers.append((EventScheduler, "run",
                         observed(EventScheduler.run, self._on_scheduler_run)))
        wrappers.append((packet_sim.MessageFlow, "__init__",
                         observed(packet_sim.MessageFlow.__init__, self._on_flow)))
        for owner, attr, wrapper in wrappers:
            stack.enter_context(mock.patch.object(owner, attr, wrapper))

    def _on_touch(self, args, kwargs, result):
        pages = args[2] if len(args) > 2 else kwargs["pages"]
        self.pages_touched += len(pages)

    def _on_fluid_run(self, args, kwargs, steps):
        self.fluid_steps += steps

    def _on_packet_run(self, args, kwargs, events):
        self.packet_events += events
        self.packet_sims[id(args[0])] = args[0]

    def _on_scheduler_run(self, args, kwargs, events):
        self.sim_events += events

    def _on_flow(self, args, kwargs, result):
        self.flows[id(args[0])] = args[0]

    def _on_run_flows(self, args, kwargs, result):
        flows = args[1] if len(args) > 1 else kwargs["flows"]
        for flow in flows:
            self.flows[id(flow)] = flow

    def metrics(self, traced_wall, untraced_wall, facts):
        """``{name: value}`` for every ``PER_LAYER`` metric.

        ``traced_wall`` is the traced run's timed call, ``untraced_wall``
        the median of the untraced ones; ``facts`` are the workload's
        snapshot-derived values (see ``workloads``).
        """
        spans = self.recorder.spans
        self_s = self_time_by_name(spans)
        counts = {}
        cluster_solves = {}
        for index, span in enumerate(spans):
            counts[span.name] = counts.get(span.name, 0) + 1
            if has_ancestor(spans, index, "cluster.run"):
                cluster_solves[span.name] = cluster_solves.get(span.name, 0) + 1
        sims = list(self.packet_sims.values())
        sent = sum(sim.packets_sent for sim in sims)
        delivered = sum(sim.packets_delivered for sim in sims)
        results = [flow.result() for flow in self.flows.values()]
        values = {
            "memory.touch_s": self_s.get("memory.touch", 0.0),
            "memory.touch_calls": counts.get("memory.touch", 0),
            "memory.pages_touched": self.pages_touched,
            "fluid.run_s": self_s.get("fluid.run", 0.0),
            "fluid.runs": counts.get("fluid.run", 0),
            "fluid.steps": self.fluid_steps,
            "packet.run_s": (self_s.get("packet.run", 0.0)
                             + self_s.get("packet.run_flows", 0.0)),
            "packet.runs": counts.get("packet.run", 0),
            "packet.events": self.packet_events,
            "packet.packets_sent": sent,
            "packet.delivered_ratio": delivered / sent if sent else 0.0,
            "packet.retransmissions": sum(r.retransmissions for r in results),
            "packet.goodput_gbps": (
                sum(r.goodput for r in results) / len(results) / 1e9
                if results else 0.0),
            "sim.events": self.sim_events,
            "cluster.self_s": self_s.get("cluster.run", 0.0),
            "cluster.fluid_solves": cluster_solves.get("fluid.run", 0),
            "cluster.packet_solves": cluster_solves.get("packet.run", 0),
            "host.launch_s": self_s.get("host.launch", 0.0),
            "host.launches": counts.get("host.launch", 0),
            "host.pin_s": self_s.get("host.pin", 0.0),
            "training.train_s": self_s.get("training.train", 0.0),
            "training.train_calls": counts.get("training.train", 0),
            "traces.self_s": self_s.get("traces.run", 0.0),
            "other.self_s": traced_wall - sum(self_s.values()),
            "obs.traced_wall_s": traced_wall,
            "obs.trace_overhead": traced_wall / untraced_wall - 1.0,
        }
        values.update(facts)
        unknown = set(values) - set(UNITS)
        if unknown:
            raise KeyError("not per-layer metrics: %s" % sorted(unknown))
        return {name: values.get(name, 0) for name, _, _ in PER_LAYER}

"""A tracer observes a packet run; it never changes what the run does.

The same lossy run, driven once with a :class:`repro.obs.Tracer`
attached and once without, must produce identical flow results, fabric
and per-port counters, and executed-event counts, in both recovery
modes.  A traced run is then the very program the perf kernels and the
benchmark measure.
"""

import pytest

from repro.net import (
    DualPlaneTopology,
    MessageFlow,
    PacketNetSim,
    ServerAddress,
    run_flows,
)
from repro.obs import Tracer
from repro.rnic.cc import WindowCC
from repro.sim.units import MB


def _lossy_run(recovery, tracer):
    topology = DualPlaneTopology(segments=2, servers_per_segment=4, rails=1,
                                 planes=2, aggs_per_plane=4)
    sim = PacketNetSim(topology, seed=11, tracer=tracer)
    sim.inject_loss(topology.tor_uplinks(segment=0, rail=0)[0], 0.05)
    flows = [
        MessageFlow(
            sim, "f%d" % index,
            ServerAddress(0, index), ServerAddress(1, index), 0,
            message_bytes=2 * MB, algorithm="obs", path_count=16,
            mtu=64 * 1024, connection_id=index, recovery=recovery,
            cc=WindowCC(init_window=1 * MB),
        )
        for index in range(3)
    ]
    results = run_flows(sim, flows, timeout=0.5)
    return {
        "results": [
            (r.flow_id, r.bytes_acked, r.completion_time,
             r.retransmissions, r.rtos)
            for r in results
        ],
        "fabric": sim.snapshot(),
        "ports": {repr(port.ref): port.snapshot(sim.now)
                  for port in sim.ports()},
        "events": sim.scheduler.events_executed,
    }


@pytest.mark.parametrize("recovery", ["selective", "go_back_n"])
def test_traced_run_equals_untraced_run(recovery):
    untraced = _lossy_run(recovery, tracer=None)
    tracer = Tracer("traced-equals-untraced")
    traced = _lossy_run(recovery, tracer=tracer)
    assert sum(rtos for *_, rtos in untraced["results"]) >= 1
    assert all(acked == 2 * MB for _, acked, *_ in untraced["results"])
    assert any(event.name == "flow.rto" for event in tracer.events)
    assert traced["results"] == untraced["results"]
    assert traced["fabric"] == untraced["fabric"]
    assert traced["ports"] == untraced["ports"]
    assert traced["events"] == untraced["events"]

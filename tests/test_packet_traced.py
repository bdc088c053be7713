"""An observer watches a packet run; it never changes what the run does.

The same lossy run, driven once bare and once with an observer attached
(a :class:`repro.obs.Tracer` or a :class:`repro.obs.flight.FlightRecorder`),
must produce identical flow results, fabric and per-port counters, and
executed-event counts, in both recovery modes.  An observed run is then
the very program the benchmark measures.
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
from repro.obs.flight import FlightRecorder
from repro.rnic.cc import WindowCC
from repro.sim.units import MB


def _lossy_run(recovery, tracer=None, flight=None):
    topology = DualPlaneTopology(segments=2, servers_per_segment=4, rails=1,
                                 planes=2, aggs_per_plane=4)
    sim = PacketNetSim(topology, seed=11, tracer=tracer, flight=flight)
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
@pytest.mark.parametrize("observer", ["tracer", "flight"])
def test_observed_run_equals_bare_run(observer, recovery):
    bare = _lossy_run(recovery)
    if observer == "tracer":
        tracer = Tracer("observed-equals-bare")
        observed = _lossy_run(recovery, tracer=tracer)
        assert any(event.name == "flow.rto" for event in tracer.events)
    else:
        flight = FlightRecorder()
        observed = _lossy_run(recovery, flight=flight)
        assert flight.recorded > 0
        assert flight.dropped == 0
    assert sum(rtos for *_, rtos in bare["results"]) >= 1
    assert all(acked == 2 * MB for _, acked, *_ in bare["results"])
    assert observed["results"] == bare["results"]
    assert observed["fabric"] == bare["fabric"]
    assert observed["ports"] == bare["ports"]
    assert observed["events"] == bare["events"]

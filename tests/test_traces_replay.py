"""TraceReplayer: dependency honoring, fidelities, telemetry surface."""

import pytest

from repro.net import ServerAddress
from repro.obs import FlightRecorder, MetricsRegistry
from repro.traces.builders import build_checkpoint_trace, build_moe_trace
from repro.traces.library import BUNDLED, load_bundled
from repro.traces.replay import (
    TraceReplayer,
    default_topology,
    rank_server,
    replay_trace,
)
from repro.traces.schema import (
    COLLECTIVE_KINDS,
    COMPUTE,
    Trace,
    TraceError,
    TraceOp,
)
from tests.contract_digests import CONTRACT_REPLAY, replay_fingerprint


def chain_trace():
    """Two ranks: parallel computes, a join allreduce, a P2P handoff."""
    trace = Trace("chain", 2)
    trace.add(TraceOp("c0", COMPUTE, rank=0, seconds=0.002))
    trace.add(TraceOp("c1", COMPUTE, rank=1, seconds=0.001))
    trace.add(TraceOp("ar", "allreduce", ranks=[0, 1], size_bytes=1 << 20,
                      deps=["c0", "c1"]))
    trace.add(TraceOp("s", "send", rank=0, peer=1, size_bytes=1 << 16,
                      deps=["ar"]))
    trace.add(TraceOp("r", "recv", rank=1, peer=0, size_bytes=1 << 16,
                      deps=["s"]))
    return trace


class TestTopologyMapping:
    def test_rank_server_round_robins_segments(self):
        topology = default_topology(8)
        assert topology.segments == 2
        assert topology.servers_per_segment == 4
        assert rank_server(0, topology) == ServerAddress(0, 0)
        assert rank_server(1, topology) == ServerAddress(1, 0)
        assert rank_server(5, topology) == ServerAddress(1, 2)

    def test_single_rank_gets_one_segment(self):
        assert default_topology(1).segments == 1


class TestReplaySemantics:
    def test_invalid_trace_rejected_at_construction(self):
        trace = chain_trace()
        trace.ops[0].deps = ["r"]  # cycle
        with pytest.raises(TraceError):
            TraceReplayer(trace)

    def test_dependencies_gate_start_times(self):
        result = replay_trace(chain_trace(), boot_hosts=False)
        log = {entry["id"]: entry for entry in result.op_log}
        trace = chain_trace()
        for op in trace.ops:
            for dep in op.deps:
                assert log[op.id]["start"] >= log[dep]["end"]
        # recv is a sync point: zero duration once the send lands.
        assert log["r"]["start"] == log["r"]["end"]

    def test_independent_roots_overlap(self):
        # c0 and c1 sit on different ranks with no edge between them:
        # the replayer must run them concurrently, not serialize.
        result = replay_trace(chain_trace(), boot_hosts=False)
        log = {entry["id"]: entry for entry in result.op_log}
        assert log["c0"]["start"] == log["c1"]["start"]
        assert result.makespan < 0.002 + 0.001 + 1.0

    def test_double_run_is_deterministic(self):
        rows = [replay_trace(chain_trace(), boot_hosts=False).to_row()
                for _ in range(2)]
        assert rows[0] == rows[1]

    def test_recorded_fidelity_uses_embedded_seconds(self):
        trace = Trace("recorded", 2)
        trace.add(TraceOp("c", COMPUTE, rank=0, seconds=0.25))
        trace.add(TraceOp("ar", "allreduce", ranks=[0, 1],
                          size_bytes=1 << 20, seconds=0.75, deps=["c"]))
        result = replay_trace(trace, fidelity="recorded", boot_hosts=False)
        assert result.makespan == pytest.approx(1.0, abs=1e-9)

    def test_packet_fidelity_replays_and_reproduces(self):
        trace = build_checkpoint_trace(trainers=2, shard_bytes=1 << 18)
        rows = [replay_trace(trace, fidelity="packet",
                             boot_hosts=False).to_row() for _ in range(2)]
        assert rows[0] == rows[1]
        assert rows[0]["ops"] == len(trace)

    def test_host_bringup_charges_setup_time(self):
        trace = chain_trace()
        booted = replay_trace(trace)
        cold = replay_trace(trace, boot_hosts=False)
        assert booted.setup_seconds > 0.0
        assert cold.setup_seconds == 0.0
        # Boot shifts the timeline, never reshapes it.
        assert booted.makespan == pytest.approx(cold.makespan, abs=1e-9)

    def test_op_sequence_filter(self):
        result = replay_trace(chain_trace(), boot_hosts=False)
        assert result.op_sequence(kinds=COLLECTIVE_KINDS) == ["ar"]
        assert set(result.op_sequence()) == set(chain_trace().op_ids())

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_fluid_replay_matches_the_pinned_contract(self, name):
        result = replay_trace(load_bundled(name), fidelity="fluid", seed=17,
                              boot_hosts=False)
        assert replay_fingerprint(result) == CONTRACT_REPLAY[name], (
            "%s's fluid replay moved off its pinned op sequence/makespan"
            % name
        )


class TestTelemetry:
    def test_metrics_provider_and_flight_events(self):
        registry = MetricsRegistry("test")
        flight = FlightRecorder()
        replayer = TraceReplayer(chain_trace(), registry=registry,
                                 flight=flight, boot_hosts=False)
        replayer.run()
        snapshot = registry.snapshot(prefix="traces.")
        assert snapshot["traces.replay.ops_replayed"] == 5
        assert snapshot["traces.replay.trace"] == "chain"
        kinds = [event["kind"] for event in flight.events()]
        assert kinds[0] == "replay-start"
        assert kinds[-1] == "replay-done"
        # Only network ops flight-record; computes stay silent.
        assert kinds.count("op-complete") == 3

    def test_bundled_moe_trace_replays(self):
        trace = build_moe_trace(iterations=1)
        result = replay_trace(trace, boot_hosts=False)
        assert result.kind_counts["alltoall"] == 1
        assert result.kind_counts["allreduce"] == 1
        assert result.bytes_moved > 0
        row = result.to_row()
        assert row["ops"] == len(trace)

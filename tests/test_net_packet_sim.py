"""Unit tests for the packet-level discrete-event network simulator."""

import pytest

from repro.net import (
    DualPlaneTopology,
    FailureScenario,
    MessageFlow,
    PacketNetSim,
    ServerAddress,
    effective_loss_rate,
    pick_victim_uplink,
    run_flows,
)
from repro.sim.units import Gbps, MB


def small_topo(**kwargs):
    defaults = dict(segments=2, servers_per_segment=4, rails=1, planes=2,
                    aggs_per_plane=4)
    defaults.update(kwargs)
    return DualPlaneTopology(**defaults)


class TestPacketForwarding:
    def test_single_packet_delivery_latency(self):
        topo = small_topo()
        sim = PacketNetSim(topo, seed=1)
        route = topo.route(ServerAddress(0, 0), ServerAddress(1, 0), 0)
        outcomes = []
        sim.send_packet(route, 4096, lambda lat, ecn: outcomes.append((lat, ecn)))
        sim.run()
        assert len(outcomes) == 1
        latency, ecn = outcomes[0]
        # 4 hops of prop + serialization at 200 Gbps each.
        expected = 4 * (1e-6 + 4096 * 8 / Gbps(200))
        assert latency == pytest.approx(expected, rel=0.01)
        assert not ecn

    def test_queueing_builds_on_shared_port(self):
        topo = small_topo()
        sim = PacketNetSim(topo, seed=1)
        route = topo.route(ServerAddress(0, 0), ServerAddress(1, 0), 0)
        latencies = []
        for _ in range(50):
            sim.send_packet(route, 64 * 1024, lambda lat, ecn: latencies.append(lat))
        sim.run()
        assert len(latencies) == 50
        assert latencies[-1] > latencies[0] * 5  # later packets queue behind
        port = sim.port(route[0])
        assert port.queue_max > 0
        assert port.queue_avg > 0

    def test_ecn_marked_when_threshold_crossed(self):
        topo = small_topo()
        sim = PacketNetSim(topo, seed=1, ecn_threshold=32 * 1024)
        route = topo.route(ServerAddress(0, 0), ServerAddress(1, 0), 0)
        marks = []
        for _ in range(40):
            sim.send_packet(route, 16 * 1024, lambda lat, ecn: marks.append(ecn))
        sim.run()
        assert any(marks)
        assert not marks[0]

    def test_tail_drop_on_overflow(self):
        topo = small_topo()
        sim = PacketNetSim(topo, seed=1, max_queue=128 * 1024)
        route = topo.route(ServerAddress(0, 0), ServerAddress(1, 0), 0)
        delivered, dropped = [], []
        for _ in range(100):
            sim.send_packet(
                route, 64 * 1024,
                lambda lat, ecn: delivered.append(1),
                lambda link: dropped.append(link),
            )
        sim.run()
        assert dropped
        assert len(delivered) + len(dropped) == 100

    def test_injected_loss_drops_packets(self):
        topo = small_topo()
        sim = PacketNetSim(topo, seed=7)
        route = topo.route(ServerAddress(0, 0), ServerAddress(1, 0), 0)
        sim.inject_loss(route[1], 1.0)
        dropped = []
        sim.send_packet(route, 4096, lambda lat, ecn: None,
                        lambda link: dropped.append(link))
        sim.run()
        assert dropped == [route[1]]
        with pytest.raises(ValueError):
            sim.inject_loss(route[0], 1.5)


class TestMessageFlows:
    def test_message_completes_and_reports_goodput(self):
        topo = small_topo()
        sim = PacketNetSim(topo, seed=2)
        flow = MessageFlow(
            sim, "f0", ServerAddress(0, 0), ServerAddress(1, 0), 0,
            message_bytes=4 * MB, algorithm="obs", path_count=8, mtu=64 * 1024,
        )
        results = run_flows(sim, [flow], timeout=1.0)
        assert flow.done
        assert results[0].bytes_acked == 4 * MB
        assert 0 < results[0].goodput <= Gbps(200) * 1.01

    def test_spray_uses_many_uplinks_single_path_one(self):
        topo = small_topo()

        def uplinks_touched(algorithm, paths, seed):
            sim = PacketNetSim(topo, seed=seed)
            MessageFlow(
                sim, "f0", ServerAddress(0, 1), ServerAddress(1, 2), 0,
                message_bytes=8 * MB, algorithm=algorithm, path_count=paths,
                mtu=64 * 1024,
            )
            sim.run(until=1.0)
            return sum(
                1 for port in sim.ports()
                if port.ref.kind == "tor_up" and port.packets_tx == 0
                and port.queue_samples
            ), sum(
                1 for port in sim.ports() if port.ref.kind == "tor_up"
            )

        _, sprayed = uplinks_touched("obs", 128, seed=3)
        _, single = uplinks_touched("single", 1, seed=3)
        assert sprayed > single

    def test_loss_recovery_via_rto_respray(self):
        """A lossy link slows a flow but the RTO re-spray completes it."""
        topo = small_topo()
        sim = PacketNetSim(topo, seed=4)
        flow = MessageFlow(
            sim, "f0", ServerAddress(0, 0), ServerAddress(1, 3), 0,
            message_bytes=2 * MB, algorithm="obs", path_count=16, mtu=32 * 1024,
        )
        # Injure one uplink the flow will sometimes cross.
        victim = pick_victim_uplink(topo)
        FailureScenario(sim).random_drop(victim, 0.5)
        results = run_flows(sim, [flow], timeout=2.0)
        assert flow.done
        assert results[0].bytes_acked == 2 * MB

    def test_single_path_through_dead_link_relies_on_respray(self):
        """Even 'single path' retransmits elsewhere after RTO — but only
        multi-path gets to keep its window; verify both complete with
        spray strictly faster under 100% loss on one uplink."""
        topo = small_topo(aggs_per_plane=2)
        outcomes = {}
        for name, paths in (("single", 1), ("obs", 16)):
            sim = PacketNetSim(topo, seed=11)
            flow = MessageFlow(
                sim, name, ServerAddress(0, 0), ServerAddress(1, 1), 0,
                message_bytes=1 * MB, algorithm=name, path_count=paths,
                mtu=32 * 1024, connection_id=5,
            )
            route = topo.route(ServerAddress(0, 0), ServerAddress(1, 1), 0,
                               path_id=0, connection_id=5)
            FailureScenario(sim).random_drop(route[1], 0.3)
            run_flows(sim, [flow], timeout=3.0)
            outcomes[name] = flow.result()
        assert outcomes["single"].bytes_acked == 1 * MB
        assert outcomes["obs"].bytes_acked == 1 * MB
        assert outcomes["obs"].completion_time < outcomes["single"].completion_time

    def test_effective_loss_rate_math(self):
        assert effective_loss_rate(0.03, 128) == pytest.approx(0.03 / 128)
        assert effective_loss_rate(0.03, 1) == pytest.approx(0.03)
        with pytest.raises(ValueError):
            effective_loss_rate(0.03, 0)


class TestQueueStats:
    def test_permutation_queue_depth_spray_vs_single(self):
        """Figure 9 in miniature: queue depth collapses with 128 paths."""
        # Non-oversubscribed like the paper's fabric: 8 uplinks per plane
        # match 8 servers' worth of per-plane traffic.
        topo = small_topo(servers_per_segment=8, aggs_per_plane=8)

        from repro.rnic.cc import WindowCC

        def run(algorithm, paths, seed=5):
            sim = PacketNetSim(topo, seed=seed)
            flows = []
            for i in range(8):
                flows.append(MessageFlow(
                    sim, "f%d" % i,
                    ServerAddress(0, i), ServerAddress(1, (i + 3) % 8), 0,
                    message_bytes=64 * MB, algorithm=algorithm,
                    path_count=paths, mtu=64 * 1024, connection_id=i,
                    cc=WindowCC(init_window=2 * 1024 * 1024),
                ))
            results = run_flows(sim, flows, timeout=2.0)
            assert all(flow.done for flow in flows)
            avg, peak = sim.tor_queue_stats()
            goodput = sum(r.goodput for r in results) / len(results)
            return peak, goodput

        single_max, single_goodput = run("single", 1)
        spray_max, spray_goodput = run("obs", 128)
        assert spray_max < single_max * 0.5
        assert spray_goodput > single_goodput


class TestRouteResolution:
    """Efficiency pin: a spray connection's routes are resolved once per
    topology, through its ``connection_paths`` table, never per packet."""

    def permutation(self, topology, seed):
        from repro.rnic.cc import WindowCC

        sim = PacketNetSim(topology, seed=seed)
        flows = [
            MessageFlow(
                sim, "perm-%d" % i, ServerAddress(0, i),
                ServerAddress(1, (i + 1) % 4), 0, message_bytes=16 * MB,
                algorithm="obs", path_count=128, mtu=64 * 1024,
                connection_id=i, cc=WindowCC(init_window=1 * MB),
            )
            for i in range(4)
        ]
        # The same lossy uplink every time, named without route().
        sim.inject_loss(topology.tor_up(0, 0, 1, 2), 0.5)
        return sim, flows

    def test_each_connection_path_is_interned_once_per_topology(
        self, monkeypatch
    ):
        from repro.cluster import ContendedTopology

        topo = small_topo(aggs_per_plane=8)
        built = []
        route_links = topo._route_links  # simlint: ok L-private

        def counting(*args):
            built.append(args)
            return route_links(*args)

        monkeypatch.setattr(topo, "_route_links", counting)

        def no_route(*args, **kwargs):
            raise AssertionError("packet sim called DualPlaneTopology.route")

        monkeypatch.setattr(DualPlaneTopology, "route", no_route)
        sim, flows = self.permutation(topo, seed=7)
        first = run_flows(sim, flows, timeout=0.004)
        assert sum(r.retransmissions for r in first) > 0
        used = sum(len(flow._paths) for flow in flows)  # simlint: ok L-private
        # OBS-128 over 16 (plane, agg) choices: most path ids get drawn.
        assert used > 4 * 64
        assert len(built) == used
        # A fresh sim on a view of the same topology, as each fleet
        # pricing window builds, reuses every table: no new routes.
        again, flows = self.permutation(ContendedTopology(topo, {}), seed=7)
        second = run_flows(again, flows, timeout=0.004)
        assert len(built) == used
        assert [(r.bytes_acked, r.retransmissions) for r in second] == [
            (r.bytes_acked, r.retransmissions) for r in first
        ]

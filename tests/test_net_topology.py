"""Unit tests for topology, ECMP hashing, and the static load model."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_selector
from repro.net import (
    DualPlaneTopology,
    EcmpHasher,
    ServerAddress,
    StaticLoadModel,
    flow_entropy,
    hash_combine,
    splitmix64,
)
from repro.net.ecmp import splitmix64_array
from repro.sim.rng import RngStream
from repro.sim.units import GB


class TestEcmp:
    def test_splitmix_is_deterministic_and_mixing(self):
        assert splitmix64(1) == splitmix64(1)
        assert splitmix64(1) != splitmix64(2)
        assert hash_combine(1, 2) != hash_combine(2, 1)

    def test_bucket_stability(self):
        hasher = EcmpHasher(120)
        assert hasher.bucket(42, 3) == hasher.bucket(42, 3)
        assert 0 <= hasher.bucket(42, 3) < 120

    def test_single_path_always_same_bucket(self):
        hasher = EcmpHasher(120)
        buckets = {hasher.bucket(flow_entropy(1, 2), 0) for _ in range(10)}
        assert len(buckets) == 1

    def test_bucket_coverage_grows_with_paths(self):
        hasher = EcmpHasher(120)
        entropy = flow_entropy(5, 9)
        few = len(set(hasher.buckets_for_paths(entropy, 4)))
        many = len(set(hasher.buckets_for_paths(entropy, 128)))
        assert few <= 4
        assert many > 60  # 128 draws over 120 buckets covers most of them

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            EcmpHasher(0)


class TestPathChoices:
    """``path_choices`` (one vector hash round) against ``ecmp_choice``
    (one scalar call per path id), element for element."""

    TOPOLOGY = DualPlaneTopology(
        segments=3, servers_per_segment=5, rails=2, planes=2, aggs_per_plane=7
    )

    def scalar(self, src, dst, path_count, connection_id):
        entropy = flow_entropy(src.node_id, dst.node_id, connection_id)
        return [self.TOPOLOGY.ecmp_choice(entropy, p) for p in range(path_count)]

    def vector(self, src, dst, path_count, connection_id):
        plane, agg = self.TOPOLOGY.path_choices(
            src, dst, path_count, connection_id
        )
        assert plane.dtype == agg.dtype == np.int64
        return list(zip(plane.tolist(), agg.tolist()))

    def test_splitmix64_array_matches_scalar_at_the_edges(self):
        values = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1, 0x9E3779B97F4A7C15]
        mixed = splitmix64_array(np.array(values, dtype=np.uint64))
        assert [int(v) for v in mixed] == [splitmix64(v) for v in values]

    def test_entropies_on_both_sides_of_two_to_the_63(self):
        src, dst = ServerAddress(0, 1), ServerAddress(2, 3)
        seen = set()
        for connection_id in range(64):
            entropy = flow_entropy(src.node_id, dst.node_id, connection_id)
            seen.add(entropy >= 1 << 63)
            assert (self.vector(src, dst, 128, connection_id)
                    == self.scalar(src, dst, 128, connection_id))
        assert seen == {True, False}

    @settings(max_examples=200, deadline=None)
    @given(
        src=st.tuples(st.integers(0, 2), st.integers(0, 4)),
        dst=st.tuples(st.integers(0, 2), st.integers(0, 4)),
        path_count=st.integers(0, 160),
        connection_id=st.integers(0, (1 << 64) - 1),
    )
    def test_every_path_id_matches_ecmp_choice(self, src, dst, path_count,
                                               connection_id):
        # Same-segment pairs included: the agg choice is still defined
        # there, the route just does not use it.
        src, dst = ServerAddress(*src), ServerAddress(*dst)
        assert (self.vector(src, dst, path_count, connection_id)
                == self.scalar(src, dst, path_count, connection_id))

    def test_path_table_resolves_each_path_to_its_route(self):
        # Same shape as TOPOLOGY, fresh so every link it numbers is seen
        # here, with uplinks faster than host ports so a rate read from
        # the wrong kind of link shows.
        topo = DualPlaneTopology(
            segments=3, servers_per_segment=5, rails=2, planes=2,
            aggs_per_plane=7, port_rate=200e9, tor_uplink_rate=400e9,
        )
        handed_out = set()
        pairs = [(ServerAddress(0, 0), ServerAddress(0, 4)),
                 (ServerAddress(0, 0), ServerAddress(2, 1))]
        # 30 paths: 1/30 is inexact, so a share summed in another order
        # or multiplied out instead of summed shows in the bits.
        for (src, dst), count in itertools.product(pairs, (32, 30)):
            routes, inverse = topo.path_table(src, dst, 1, count,
                                              connection_id=9)
            per_path = [
                topo.route(src, dst, 1, path_id=p, connection_id=9)
                for p in range(count)
            ]
            assert len(set(routes)) == len(routes)  # each route once
            assert [routes[u] for u in inverse.tolist()] == per_path
            # The memoized spray: its plan row is the per-path
            # accumulation of route() link indices, in path order, bit
            # for bit; its route shares count route() path by path.
            cols, vals, table, paths = topo.spray(src, dst, 1, count, 9)
            assert topo.spray(src, dst, 1, count, 9)[0] is cols
            expected = {}
            for route in per_path:
                for link in route:
                    expected[link.index] = (
                        expected.get(link.index, 0.0) + 1.0 / count
                    )
            assert cols.tolist() == sorted(expected)
            assert [v.hex() for v in vals.tolist()] == [
                expected[c].hex() for c in sorted(expected)
            ]
            assert table.tolist() == [
                [link.index for link in route] for route in routes
            ]
            assert paths.tolist() == [per_path.count(route) for route in routes]
            handed_out.update(link for route in per_path for link in route)
            for path_id in range(8):
                handed_out.update(topo.escape_route(src, dst, 1, path_id))
        assert {"core_up", "core_down"} <= {link.kind for link in handed_out}
        # One dense numbering: every interned link, the escape route's
        # core links included, has its own index, and link_rates() is the
        # capacity array in that order.
        rates = topo.link_rates()
        assert sorted(link.index for link in handed_out) == list(
            range(len(rates))
        )
        for link in handed_out:
            assert rates[link.index] == topo.link_rate(link)


class TestConnectionPaths:
    """``connection_paths`` (one vector choice pass, routes built on first
    read) against per-path-id ``route()`` calls."""

    @staticmethod
    def shape(planes, aggs):
        return dict(segments=2, servers_per_segment=3, rails=2,
                    planes=planes, aggs_per_plane=aggs)

    @settings(max_examples=60, deadline=None)
    @given(
        planes=st.integers(1, 2),
        aggs=st.integers(1, 60),
        cross=st.booleans(),
        path_count=st.integers(1, 256),
        connection_id=st.integers(0, (1 << 64) - 1),
        data=st.data(),
    )
    def test_table_matches_route_and_its_link_numbering(
        self, planes, aggs, cross, path_count, connection_id, data
    ):
        src = ServerAddress(0, 1)
        dst = ServerAddress(1 if cross else 0, 2)
        rail = data.draw(st.integers(0, 1), label="rail")
        order = data.draw(
            st.lists(st.integers(0, path_count - 1), max_size=300),
            label="path ids",
        )
        # The same first-use order through the table and through route(),
        # each on a fresh topology: the links get the same numbering.
        tabled = DualPlaneTopology(**self.shape(planes, aggs))
        routed = DualPlaneTopology(**self.shape(planes, aggs))
        table = tabled.connection_paths(src, dst, rail, path_count,
                                        connection_id)
        for path_id in order:
            assert [link.index for link in table[path_id]] == [
                link.index for link in routed.route(
                    src, dst, rail, path_id=path_id,
                    connection_id=connection_id,
                )
            ]
        # Every path id, read or not: the table's route is route()'s, and
        # a read returns the interned tuple again.
        for path_id in range(path_count):
            route = table[path_id]
            assert route == tabled.route(src, dst, rail, path_id=path_id,
                                         connection_id=connection_id)
            assert table[path_id] is route
        assert tabled.connection_paths(src, dst, rail, path_count,
                                       connection_id) is table

    def test_route_to_self_is_rejected(self):
        topo = DualPlaneTopology(**self.shape(2, 4))
        with pytest.raises(ValueError):
            topo.connection_paths(ServerAddress(0, 0), ServerAddress(0, 0),
                                  0, 8)


class TestTopology:
    def topo(self):
        return DualPlaneTopology(
            segments=2, servers_per_segment=4, rails=4, planes=2, aggs_per_plane=8
        )

    def test_dimensions(self):
        topo = self.topo()
        assert topo.server_count == 8
        assert topo.path_diversity == 16
        assert topo.gpu_count() == 64
        assert len(list(topo.servers())) == 8

    def test_cross_segment_route_shape(self):
        topo = self.topo()
        src = ServerAddress(0, 1)
        dst = ServerAddress(1, 2)
        route = topo.route(src, dst, rail=2, path_id=0)
        kinds = [link.kind for link in route]
        assert kinds == ["host_up", "tor_up", "tor_down", "host_down"]
        # Rail-optimized: every hop stays on rail 2.
        assert all(link.key[2] == 2 for link in route if link.kind.startswith("host"))
        assert route[1].key[1] == 2  # tor_up rail field

    def test_same_segment_route_skips_agg(self):
        topo = self.topo()
        route = topo.route(ServerAddress(0, 0), ServerAddress(0, 3), rail=0)
        assert [link.kind for link in route] == ["host_up", "host_down"]

    def test_route_to_self_rejected(self):
        topo = self.topo()
        with pytest.raises(ValueError):
            topo.route(ServerAddress(0, 0), ServerAddress(0, 0), rail=0)

    def test_path_ids_explore_plane_and_agg(self):
        topo = self.topo()
        src, dst = ServerAddress(0, 0), ServerAddress(1, 0)
        choices = {
            (topo.route(src, dst, 0, path_id=p)[1].key[2],
             topo.route(src, dst, 0, path_id=p)[1].key[3])
            for p in range(128)
        }
        assert len(choices) > 12  # covers most of the 16 (plane, agg) pairs

    def test_tor_uplink_enumeration(self):
        topo = self.topo()
        assert len(topo.tor_uplinks()) == 2 * 4 * 2 * 8
        assert len(topo.tor_uplinks(segment=0, rail=1)) == 2 * 8

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            DualPlaneTopology(segments=0)


class TestStaticLoadModel:
    def test_byte_conservation_per_flow(self):
        topo = DualPlaneTopology(segments=2, servers_per_segment=2, rails=1,
                                 planes=2, aggs_per_plane=4)
        model = StaticLoadModel(topo, seed=1)
        selector = make_selector("obs", 16, rng=RngStream(1, "t"))
        model.add_flow(ServerAddress(0, 0), ServerAddress(1, 0), 0, selector, 1 * GB)
        # Every byte crosses exactly 4 links (cross-segment route).
        assert model.loads.total_bytes == pytest.approx(4 * GB, rel=1e-9)

    def test_spray_lowers_imbalance_vs_single_path(self):
        """The Figure 12 ordering in miniature."""
        topo = DualPlaneTopology(segments=2, servers_per_segment=8, rails=1,
                                 planes=2, aggs_per_plane=8)
        duration = 0.1

        def run(algorithm, path_count, seed):
            model = StaticLoadModel(topo, seed=seed)
            for i in range(8):
                selector = make_selector(
                    algorithm, path_count, rng=RngStream(seed, "f", i)
                )
                model.add_flow(
                    ServerAddress(0, i), ServerAddress(1, (i + 1) % 8), 0,
                    selector, 5 * GB, connection_id=i,
                )
            return model.imbalance(duration)

        single = run("single", 1, seed=3)
        sprayed = run("obs", 128, seed=3)
        assert sprayed < single * 0.5

    def test_queue_proxy_zero_when_undersubscribed(self):
        topo = DualPlaneTopology(segments=2, servers_per_segment=2, rails=1,
                                 planes=2, aggs_per_plane=8)
        model = StaticLoadModel(topo, seed=2)
        selector = make_selector("obs", 128, rng=RngStream(2, "q"))
        # 1 GB over 1 second across 16 uplinks of 200 Gbps: far below rate.
        model.add_flow(ServerAddress(0, 0), ServerAddress(1, 0), 0, selector, 1 * GB)
        avg, peak = model.queue_depth_proxy(duration=1.0)
        assert avg == 0.0 and peak == 0.0

    def test_queue_proxy_positive_when_collided(self):
        topo = DualPlaneTopology(segments=2, servers_per_segment=8, rails=1,
                                 planes=2, aggs_per_plane=2)
        model = StaticLoadModel(topo, seed=4)
        # 8 single-path flows into 4 uplink ports over a tiny duration:
        # collisions are guaranteed and overload those ports.
        for i in range(8):
            selector = make_selector("single", 1, rng=RngStream(4, "s", i))
            model.add_flow(
                ServerAddress(0, i), ServerAddress(1, i), 0, selector,
                25 * GB, connection_id=i,
            )
        avg, peak = model.queue_depth_proxy(duration=1.0)
        assert peak > 0.0

    def test_rates_require_positive_duration(self):
        topo = DualPlaneTopology()
        model = StaticLoadModel(topo)
        with pytest.raises(ValueError):
            model.loads.rates_for([], 0.0)


class TestCoreEscape:
    def topo(self):
        return DualPlaneTopology(segments=2, servers_per_segment=4, rails=2,
                                 planes=2, aggs_per_plane=8)

    def test_escape_route_crosses_planes_via_core(self):
        topo = self.topo()
        src, dst = ServerAddress(0, 0), ServerAddress(1, 1)
        route = topo.escape_route(src, dst, rail=1, path_id=3)
        kinds = [link.kind for link in route]
        assert kinds == ["host_up", "tor_up", "core_up", "core_down",
                         "tor_down", "host_down"]
        up_plane = route[0].key[3]
        down_plane = route[-1].key[3]
        assert up_plane != down_plane  # the whole point of the escape

    def test_same_segment_escape_uses_other_plane_only(self):
        topo = self.topo()
        route = topo.escape_route(ServerAddress(0, 0), ServerAddress(0, 1), 0)
        assert [l.kind for l in route] == ["host_up", "host_down"]
        normal = topo.route(ServerAddress(0, 0), ServerAddress(0, 1), 0)
        assert route[0].key[3] != normal[0].key[3]

    def test_packet_delivered_over_escape_when_plane_dead(self):
        from repro.net import PacketNetSim

        topo = self.topo()
        sim = PacketNetSim(topo, seed=31)
        src, dst = ServerAddress(0, 0), ServerAddress(1, 0)
        primary = topo.route(src, dst, 0, path_id=5)
        # The destination side of the chosen plane dies (agg -> ToR); the
        # escape descends the *other* plane via the core and avoids it.
        sim.inject_loss(primary[2], 1.0)
        delivered = []
        sim.send_packet(topo.escape_route(src, dst, 0, path_id=5), 4096,
                        lambda lat, ecn: delivered.append(lat))
        sim.run()
        assert len(delivered) == 1
        # Six hops instead of four: the escape is longer but alive.
        assert delivered[0] > 0

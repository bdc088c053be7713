"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_selector
from repro.net import (
    DualPlaneTopology,
    EcmpHasher,
    FluidSimulation,
    MessageFlow,
    PacketNetSim,
    ServerAddress,
    run_flows,
)
from repro.sim.rng import RngStream
from repro.sim.units import Gbps


@settings(max_examples=40, deadline=None)
@given(
    flows=st.lists(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=9),
                      st.floats(min_value=0.05, max_value=1.0)),
            min_size=1, max_size=4, unique_by=lambda t: t[0],
        ),
        min_size=1, max_size=8,
    ),
    caps=st.lists(st.floats(min_value=1e9, max_value=400e9),
                  min_size=10, max_size=10),
)
def test_max_min_never_oversubscribes_links(flows, caps):
    """For any weight matrix, the allocation respects every capacity and
    gives every flow a non-negative rate."""
    weight_rows = [dict(flow) for flow in flows]
    rates = FluidSimulation.max_min_rates(weight_rows, caps)
    assert all(rate >= 0 for rate in rates)
    for link in range(10):
        load = sum(rates[f] * row.get(link, 0.0)
                   for f, row in enumerate(weight_rows))
        assert load <= caps[link] * (1 + 1e-6) + 2.0


@settings(max_examples=40, deadline=None)
@given(
    flows=st.lists(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=9),
                      st.floats(min_value=0.05, max_value=1.0)),
            min_size=1, max_size=4, unique_by=lambda t: t[0],
        ),
        min_size=1, max_size=8,
    ),
    caps=st.lists(st.floats(min_value=1e9, max_value=400e9),
                  min_size=10, max_size=10),
    order=st.permutations(range(10)),
)
def test_max_min_ignores_link_numbering(flows, caps, order):
    """Renumbering the links — moving each column, with its capacity, to
    another index — returns bit-identical rates.  The fluid solver's
    columns follow whatever order a topology numbered its links in, so
    no rate may depend on it."""
    rows = [dict(flow) for flow in flows]
    renumbered = [{order[link]: w for link, w in row.items()} for row in rows]
    moved_caps = [0.0] * 10
    for link, cap in enumerate(caps):
        moved_caps[order[link]] = cap
    rates = FluidSimulation.max_min_rates(rows, caps)
    moved = FluidSimulation.max_min_rates(renumbered, moved_caps)
    assert [r.hex() for r in rates.tolist()] == [
        r.hex() for r in moved.tolist()
    ]


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=6),
    cap=st.floats(min_value=1e9, max_value=400e9),
)
def test_max_min_equal_flows_share_equally(count, cap):
    rows = [{0: 1.0} for _ in range(count)]
    rates = FluidSimulation.max_min_rates(rows, [cap])
    for rate in rates:
        assert rate == pytest.approx(cap / count, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    buckets=st.integers(min_value=2, max_value=240),
    entropy=st.integers(min_value=0, max_value=2**62),
)
def test_ecmp_spray_covers_buckets_uniformly_enough(buckets, entropy):
    """With draws >> buckets, every bucket receives traffic and no bucket
    takes more than a loose multiple of its fair share."""
    hasher = EcmpHasher(buckets)
    draws = buckets * 64
    counts = [0] * buckets
    for path_id in range(draws):
        counts[hasher.bucket(entropy, path_id)] += 1
    assert min(counts) > 0
    assert max(counts) < 64 * 3


@settings(max_examples=15, deadline=None)
@given(
    message=st.integers(min_value=64 * 1024, max_value=4 * 1024 * 1024),
    algorithm=st.sampled_from(["obs", "rr", "dwrr", "mprdma", "flowlet"]),
    paths=st.sampled_from([1, 4, 16, 128]),
    seed=st.integers(min_value=0, max_value=100),
)
def test_packet_sim_conserves_bytes(message, algorithm, paths, seed):
    """Whatever the algorithm/fan-out, a lossless fabric delivers exactly
    the message bytes — no duplication, no loss, flow completes."""
    topo = DualPlaneTopology(segments=2, servers_per_segment=2, rails=1,
                             planes=2, aggs_per_plane=4)
    sim = PacketNetSim(topo, seed=seed)
    flow = MessageFlow(sim, "p", ServerAddress(0, 0), ServerAddress(1, 1), 0,
                       message_bytes=message, algorithm=algorithm,
                       path_count=paths, mtu=64 * 1024)
    results = run_flows(sim, [flow], timeout=2.0)
    assert flow.done
    assert results[0].bytes_acked == message
    assert flow.bytes_unsent == 0
    assert sim.packets_dropped == 0
    # Goodput can never exceed the NIC's aggregate line rate.
    assert results[0].goodput <= Gbps(400) * 1.01


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    paths=st.sampled_from([4, 32, 128]),
)
def test_spray_connection_total_draw_distribution(seed, paths):
    """Selectors never emit out-of-range paths even under heavy feedback
    churn, and oblivious selectors keep a bounded max/min imbalance."""
    import collections

    selector = make_selector("obs", paths, rng=RngStream(seed, "prop"))
    counts = collections.Counter()
    for i in range(paths * 50):
        path = selector.next_path()
        assert 0 <= path < paths
        counts[path] += 1
        selector.on_feedback(path, rtt=10e-6, ecn=(i % 11 == 0))
    assert max(counts.values()) <= 50 * 2.5

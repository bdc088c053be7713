"""Unit tests for FleetHost admission accounting and the shared ATC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FleetHost, FleetHostError
from repro.net.topology import ServerAddress
from repro.sim.units import GiB, MiB


def make_host(name="h0", segment=0, index=0, **kwargs):
    config = dict(gpus=2, rnics=1, dram_bytes=8 * GiB, gpu_hbm_bytes=1 * GiB)
    config.update(kwargs)
    return FleetHost(name, ServerAddress(segment, index), **config)


class TestAdmissionLedger:
    def test_fresh_host_is_empty(self):
        host = make_host()
        assert host.gpus_reserved == 0
        assert host.dram_reserved == 0
        assert host.sfs_reserved == 0
        assert host.lut_used == host.lut_base
        assert host.free_vector() == [
            host.gpu_capacity, host.dram_capacity, host.sf_capacity,
            host.lut_capacity - host.lut_base,
        ]

    def test_reserve_and_release_roundtrip(self):
        host = make_host()
        host.reserve("job-a", gpus=1, dram_bytes=2 * GiB, sfs=1, lut_entries=1)
        assert host.gpus_free == host.gpu_capacity - 1
        assert host.dram_free == host.dram_capacity - 2 * GiB
        assert host.sfs_free == host.sf_capacity - 1
        assert host.lut_used == host.lut_base + 1
        host.release("job-a")
        assert host.gpus_reserved == 0
        assert host.lut_used == host.lut_base

    def test_release_is_idempotent(self):
        host = make_host()
        host.reserve("job-a", gpus=1, dram_bytes=1 * GiB, sfs=1)
        assert host.release("job-a") is not None
        assert host.release("job-a") is None
        assert host.release("never-reserved") is None

    def test_duplicate_reservation_rejected(self):
        host = make_host()
        host.reserve("job-a", gpus=1, dram_bytes=1 * GiB, sfs=1)
        with pytest.raises(FleetHostError, match="already holds"):
            host.reserve("job-a", gpus=1, dram_bytes=1 * GiB, sfs=1)

    def test_over_capacity_rejected_per_dimension(self):
        host = make_host()
        with pytest.raises(FleetHostError, match="cannot fit"):
            host.reserve("gpus", gpus=host.gpu_capacity + 1,
                         dram_bytes=1 * GiB, sfs=1)
        with pytest.raises(FleetHostError, match="cannot fit"):
            host.reserve("dram", gpus=1,
                         dram_bytes=host.dram_capacity + 1, sfs=1)
        with pytest.raises(FleetHostError, match="cannot fit"):
            host.reserve("lut", gpus=1, dram_bytes=1 * GiB, sfs=1,
                         lut_entries=host.lut_free + 1)
        assert host.gpus_reserved == 0  # failed reserves commit nothing

    def test_can_fit_matches_reserve(self):
        host = make_host()
        assert host.can_fit(host.gpu_capacity, 1 * GiB, 1)
        assert not host.can_fit(host.gpu_capacity + 1, 1 * GiB, 1)


class TestLedgerTotals:
    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("reserve"), st.sampled_from("abcde"),
                  st.integers(0, 3), st.integers(0, 5), st.integers(0, 40),
                  st.integers(0, 3)),
        st.tuples(st.just("release"), st.sampled_from("abcdef")),
    ), max_size=30))
    def test_running_totals_equal_a_fresh_sum(self, ops):
        host = make_host(sf_capacity=64)
        for op in ops:
            if op[0] == "reserve":
                _, name, gpus, dram_gib, sfs, lut = op
                try:
                    host.reserve(name, gpus, dram_gib * GiB, sfs,
                                 lut_entries=lut)
                except FleetHostError:
                    pass  # duplicate or over capacity: nothing committed
            else:
                host.release(op[1])
            entries = host._reservations.values()  # simlint: ok L-private
            assert host.gpus_reserved == sum(e["gpus"] for e in entries)
            assert host.dram_reserved == sum(e["dram_bytes"] for e in entries)
            assert host.sfs_reserved == sum(e["sfs"] for e in entries)
            assert host.lut_used == host.lut_base + sum(
                e["lut_entries"] for e in entries
            )


class TestContainerLifecycle:
    def test_launch_stripes_over_rnics(self):
        host = make_host(gpus=4, rnics=2)
        first = host.launch("stripe-0", 1 * GiB).container
        second = host.launch("stripe-1", 1 * GiB).container
        assert (first.vstellar_device.parent
                is not second.vstellar_device.parent)

    def test_stop_invalidates_shared_atc_entries(self):
        host = make_host(atc_capacity=64)
        container = host.launch("atc-owner", 1 * GiB).container
        region = container.alloc_buffer(1 * MiB)
        host.prepare_working_set(container, region)
        pages = [gpa for _, gpa, _ in
                 container.gva_to_gpa_chunks(region.start, region.length)]
        host.touch(container, pages)
        assert host.atc.snapshot()["size"] > 0
        host.stop(container)
        assert host.atc.snapshot()["size"] == 0


class TestSharedAtc:
    def working_set(self, host, name, pages=6):
        container = host.launch(name, 1 * GiB).container
        region = container.alloc_buffer(pages * host.atc.page_size)
        host.prepare_working_set(container, region)
        gpas = []
        for _, gpa, length in container.gva_to_gpa_chunks(
            region.start, region.length
        ):
            cursor = gpa - (gpa % host.atc.page_size)
            while cursor < gpa + length:
                gpas.append(cursor)
                cursor += host.atc.page_size
        return container, gpas[:pages]

    def test_second_touch_hits(self):
        host = make_host(atc_capacity=64)
        container, pages = self.working_set(host, "hot")
        assert host.touch(container, pages) == 0  # all cold
        assert host.touch(container, pages) == len(pages)  # all warm

    def test_colocated_tenants_evict_each_other(self):
        host = make_host(atc_capacity=8)
        a, pages_a = self.working_set(host, "tenant-a", pages=6)
        b, pages_b = self.working_set(host, "tenant-b", pages=6)
        host.touch(a, pages_a)
        host.touch(b, pages_b)  # evicts most of a's entries
        rewarm = host.touch(a, pages_a)
        assert rewarm < len(pages_a)
        snap = host.atc.snapshot()
        assert snap["size"] <= snap["capacity"] == 8
        assert snap["evictions"] > 0

    def test_snapshot_accounts_translation_time(self):
        host = make_host(atc_capacity=64)
        container, pages = self.working_set(host, "timed")
        host.touch(container, pages)
        assert host.atc.snapshot()["translation_seconds"] > 0


class TestSnapshot:
    def test_snapshot_pairs_satisfy_sanitizer_convention(self):
        host = make_host()
        host.reserve("job-a", gpus=1, dram_bytes=1 * GiB, sfs=1, lut_entries=1)
        snap = host.snapshot()
        for base in ("gpus", "dram", "sfs", "lut"):
            assert snap["%s_used" % base] <= snap["%s_capacity" % base]
        assert snap["jobs"] == 1

    def test_register_metrics_namespaces_by_host_name(self):
        from repro.obs.metrics import MetricsRegistry

        host = make_host(name="h1-3")
        registry = MetricsRegistry("t")
        host.register_metrics(registry)
        snapshot = registry.snapshot()
        assert "cluster.host.h1-3.gpus_capacity" in snapshot

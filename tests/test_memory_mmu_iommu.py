"""Unit tests for the MMU/EPT, IOMMU, ATS, and pinning models."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import calibration
from repro.memory import (
    AddressSpace,
    Iommu,
    MMU,
    MemoryKind,
    MemoryRegion,
    PageFault,
    PinError,
    PinManager,
    full_pin_seconds,
)
from repro.sim.units import GiB, MiB
from tests.test_cluster_atc_skip import eviction_order


def hpa(start, length, kind=MemoryKind.HOST_DRAM):
    return MemoryRegion(start, length, AddressSpace.HPA, kind)


class TestMmu:
    def test_ept_round_trip(self):
        mmu = MMU()
        mmu.create_ept("vm1")
        mmu.register_guest_memory("vm1", 0x0, hpa(0x100000, 0x4000))
        assert mmu.translate("vm1", 0x1234) == 0x101234
        assert mmu.entry_kind("vm1", 0x0) is MemoryKind.HOST_DRAM

    def test_duplicate_ept_rejected(self):
        mmu = MMU()
        mmu.create_ept("vm1")
        with pytest.raises(ValueError):
            mmu.create_ept("vm1")

    def test_missing_guest_faults(self):
        mmu = MMU()
        with pytest.raises(PageFault):
            mmu.translate("ghost", 0x0)

    def test_direct_map_lifecycle(self):
        mmu = MMU()
        mmu.create_ept("vm1")
        doorbell = hpa(0xF000_0000, 4096, MemoryKind.DEVICE_MMIO)
        mmu.register_direct_map("vm1", 0x7000_0000, doorbell)
        assert mmu.translate("vm1", 0x7000_0008) == 0xF000_0008
        assert 0x7000_0000 in mmu.direct_maps("vm1")
        released = mmu.unregister_direct_map("vm1", 0x7000_0000)
        assert released.start == 0xF000_0000
        with pytest.raises(PageFault):
            mmu.translate("vm1", 0x7000_0000)

    def test_direct_map_requires_4k_multiple(self):
        mmu = MMU()
        mmu.create_ept("vm1")
        with pytest.raises(ValueError):
            mmu.register_direct_map("vm1", 0x0, hpa(0x1000, 100))

    def test_destroy_ept_clears_state(self):
        mmu = MMU()
        mmu.create_ept("vm1")
        mmu.destroy_ept("vm1")
        assert mmu.direct_maps("vm1") == {}
        mmu.create_ept("vm1")  # recreate allowed after destroy


class TestPinManager:
    def test_pin_charges_only_new_blocks(self):
        pins = PinManager(block_size=2 * MiB)
        first = pins.pin(0x0, 2 * MiB)
        again = pins.pin(0x0, 2 * MiB)
        assert first > 0
        assert again == 0.0
        assert pins.pinned_blocks == 1

    def test_refcounted_unpin(self):
        pins = PinManager(block_size=4096)
        pins.pin(0x0, 4096)
        pins.pin(0x0, 4096)
        pins.unpin(0x0, 4096)
        assert pins.is_pinned(0x0)
        pins.unpin(0x0, 4096)
        assert not pins.is_pinned(0x0)

    def test_unpin_unpinned_raises(self):
        pins = PinManager()
        with pytest.raises(PinError):
            pins.unpin(0x0, 4096)

    def test_range_spanning_blocks(self):
        pins = PinManager(block_size=4096)
        pins.pin(4000, 200)  # crosses a block boundary
        assert pins.pinned_blocks == 2
        assert pins.range_pinned(4000, 200)
        assert not pins.range_pinned(0x0, 3 * 4096)

    def test_full_pin_matches_paper_datum(self):
        seconds = full_pin_seconds(int(1.6e12))
        assert seconds == pytest.approx(390.0, rel=1e-6)

    def test_block_size_validation(self):
        with pytest.raises(PinError):
            PinManager(block_size=3000)


class TestIommu:
    def test_map_translate_unmap(self):
        iommu = Iommu()
        iommu.create_domain("vm1")
        cost = iommu.map("vm1", 0x0, 0x100000, 0x4000, kind=MemoryKind.HOST_DRAM)
        assert cost > 0
        assert iommu.translate("vm1", 0x123) == 0x100123
        iommu.unmap("vm1", 0x0, 0x4000)
        with pytest.raises(PageFault):
            iommu.translate("vm1", 0x0)

    def test_map_without_pin_costs_nothing(self):
        iommu = Iommu()
        iommu.create_domain("vm1")
        assert iommu.map("vm1", 0x0, 0x100000, 0x1000, pin=False) == 0.0

    def test_ats_latency_iotlb_hit_vs_miss(self):
        iommu = Iommu()
        iommu.create_domain("vm1")
        iommu.map("vm1", 0x0, 0x200000, 0x2000, kind=MemoryKind.GPU_HBM)
        miss = iommu.ats_translate("vm1", 0x0)
        hit = iommu.ats_translate("vm1", 0x0)
        assert not miss.iotlb_hit and hit.iotlb_hit
        assert miss.latency == pytest.approx(
            calibration.ATS_QUERY_SECONDS + calibration.IOTLB_WALK_SECONDS
        )
        assert hit.latency == pytest.approx(calibration.ATS_QUERY_SECONDS)
        assert hit.kind is MemoryKind.GPU_HBM
        assert hit.hpa == 0x200000

    def test_ats_disabled_raises(self):
        iommu = Iommu(ats_enabled=False)
        iommu.create_domain("vm1")
        iommu.map("vm1", 0x0, 0x100000, 0x1000)
        with pytest.raises(PageFault):
            iommu.ats_translate("vm1", 0x0)

    def test_ats_unmapped_page_faults(self):
        iommu = Iommu()
        iommu.create_domain("vm1")
        with pytest.raises(PageFault):
            iommu.ats_translate("vm1", 0xDEAD000)

    def test_unmap_invalidates_iotlb(self):
        iommu = Iommu()
        iommu.create_domain("vm1")
        iommu.map("vm1", 0x0, 0x100000, 0x1000)
        iommu.ats_translate("vm1", 0x0)
        iommu.unmap("vm1", 0x0, 0x1000)
        assert ("vm1", 0x0) not in iommu.iotlb

    def test_rc_translate_uses_iotlb(self):
        iommu = Iommu()
        iommu.create_domain("vm1")
        iommu.map("vm1", 0x0, 0x100000, 0x1000)
        miss = iommu.rc_translate("vm1", 0x10)
        hit = iommu.rc_translate("vm1", 0x20)
        assert not miss.iotlb_hit and hit.iotlb_hit
        assert miss.latency > hit.latency == 0.0

    def test_domain_lifecycle(self):
        iommu = Iommu()
        iommu.create_domain("vm1")
        with pytest.raises(ValueError):
            iommu.create_domain("vm1")
        iommu.destroy_domain("vm1")
        with pytest.raises(KeyError):
            iommu.domain("vm1")
        with pytest.raises(KeyError):
            iommu.destroy_domain("vm1")

    def test_fullpin_of_large_vm_is_minutes(self):
        """Integration with the Figure 6 cost model: mapping 1.6 TB in one
        VFIO-style call takes ~390 simulated seconds."""
        iommu = Iommu()
        iommu.create_domain("big", pin_block_size=1 * GiB)
        cost = iommu.map("big", 0x0, 0x40000000, int(1.6e12), pin=True)
        assert 350 < cost < 430


BATCH_PAGE = 4096
BATCH_PAGES = 6
BATCH_HOLE = 4  # page index left unmapped in domain "b"


def batch_iommu(iotlb_capacity):
    """Domain "a" maps pages 0-5 in two intervals; "b" maps all but one."""
    iommu = Iommu(iotlb_capacity=iotlb_capacity)
    iommu.create_domain("a")
    iommu.map("a", 0, 0x10_0000, 3 * BATCH_PAGE, pin=False)
    iommu.map("a", 3 * BATCH_PAGE, 0x90_0000, 3 * BATCH_PAGE,
              kind=MemoryKind.GPU_HBM, pin=False)
    iommu.create_domain("b")
    for index in range(BATCH_PAGES):
        if index != BATCH_HOLE:
            iommu.map("b", index * BATCH_PAGE, 0x50_0000 + index * BATCH_PAGE,
                      BATCH_PAGE, pin=False)
    return iommu


def iotlb_view(iommu):
    iotlb = iommu.iotlb
    universe = [(d, i * BATCH_PAGE) for d in "ab" for i in range(BATCH_PAGES)]
    return ((iotlb.hits, iotlb.misses, iotlb.evictions, iotlb.invalidations),
            {key: iotlb.peek(key) for key in universe if key in iotlb},
            eviction_order(iotlb, universe),
            {d: iotlb.holds_domain(d) for d in "ab"})


def per_request_loop(iommu, domain, das):
    replies = [iommu.ats_translate(domain, da) for da in das]
    return [(r.hpa, r.kind) for r in replies], [r.latency for r in replies]


def outcome(call):
    try:
        return call()
    except PageFault as fault:
        return ("fault", fault.address, fault.reason)


@st.composite
def batch_programs(draw):
    address = st.tuples(st.integers(0, BATCH_PAGES - 1),
                        st.sampled_from([0, 0, 8])).map(
        lambda pair: pair[0] * BATCH_PAGE + pair[1])
    domain = st.sampled_from("ab")
    op = st.one_of(
        st.tuples(st.just("many"), domain, st.lists(address, max_size=8)),
        st.tuples(st.just("one"), domain, address),
        st.tuples(st.just("flush"), domain),
    )
    return (draw(st.integers(min_value=1, max_value=6)),
            draw(st.lists(op, min_size=1, max_size=12)))


@settings(max_examples=200, deadline=None)
@given(program=batch_programs())
@example(program=(6, [("many", "a", [0, BATCH_PAGE, 5 * BATCH_PAGE])]))
@example(program=(2, [("many", "a", [0, BATCH_PAGE, 2 * BATCH_PAGE])]))
@example(program=(6, [("many", "a", [0, 8, BATCH_PAGE])]))
@example(program=(6, [("one", "a", 0), ("many", "a", [0, BATCH_PAGE])]))
@example(program=(6, [("many", "b",
                       [0, BATCH_HOLE * BATCH_PAGE, BATCH_PAGE])]))
def test_ats_translate_many_equals_a_loop_of_ats_translate(program):
    """Same replies, latencies, faults and IOTLB state as one request at a
    time, on a small IOTLB, warm and cold domains, duplicate pages and an
    unmapped page."""
    capacity, ops = program
    batched, looped = batch_iommu(capacity), batch_iommu(capacity)
    for op in ops:
        if op[0] == "many":
            _, domain, das = op
            assert outcome(lambda: batched.ats_translate_many(domain, das)) \
                == outcome(lambda: per_request_loop(looped, domain, das))
        elif op[0] == "one":
            for iommu in (batched, looped):
                outcome(lambda: iommu.ats_translate(op[1], op[2]))
        else:
            for iommu in (batched, looped):
                iommu.iotlb.invalidate_domain(op[1])
        assert iotlb_view(batched) == iotlb_view(looped)

"""Unit tests for PVDMA: on-demand pinning, the Map Cache, and the
Figure 5 doorbell hazard plus its virtio-shm fix."""

import pytest

from repro import calibration
from repro.core import PvdmaEngine, PvdmaError, run_doorbell_hazard_scenario
from repro.memory import AddressSpace, MemoryKind, MemoryRegion
from repro.sim.units import GiB, MiB
from repro.virt import Hypervisor, MemoryMode, RunDContainer

BLOCK = calibration.PVDMA_BLOCK_BYTES


def make_setup(memory=4 * GiB, mode=MemoryMode.PVDMA):
    hv = Hypervisor()
    container = RunDContainer("c0", memory, hv, memory_mode=mode)
    container.boot()
    return hv, container, PvdmaEngine(hv)


class TestOnDemandPinning:
    def test_first_dma_pins_block(self):
        hv, c, pvdma = make_setup()
        cost = pvdma.dma_prepare(c, 0x0, 4096)
        assert cost > 0
        assert hv.iommu.is_mapped(c.domain_name, 0x0)
        domain = hv.iommu.domain(c.domain_name)
        assert domain.pins.range_pinned(c.hpa_base, BLOCK)

    def test_repeat_dma_hits_map_cache_for_free(self):
        hv, c, pvdma = make_setup()
        pvdma.dma_prepare(c, 0x0, 4096)
        cost = pvdma.dma_prepare(c, 0x100, 4096)
        assert cost == 0.0
        stats = pvdma.stats(c)
        assert stats.hits == 1 and stats.misses == 1

    def test_block_granularity_is_2mib(self):
        hv, c, pvdma = make_setup()
        pvdma.dma_prepare(c, 0x0, 1)  # one byte pins a whole 2 MiB block
        assert pvdma.dma_prepare(c, BLOCK - 1, 1) == 0.0  # same block
        assert pvdma.dma_prepare(c, BLOCK, 1) > 0.0  # next block

    def test_spanning_request_pins_all_blocks(self):
        hv, c, pvdma = make_setup()
        pvdma.dma_prepare(c, BLOCK - 0x1000, 0x2000)  # straddles boundary
        assert hv.iommu.is_mapped(c.domain_name, 0)
        assert hv.iommu.is_mapped(c.domain_name, BLOCK)
        assert len(pvdma.cached_blocks(c)) == 2

    def test_pin_cost_proportional_to_new_blocks(self):
        hv, c, pvdma = make_setup()
        one = pvdma.dma_prepare(c, 0x0, BLOCK)
        four = pvdma.dma_prepare(c, 4 * BLOCK, 4 * BLOCK)
        assert four == pytest.approx(4 * one, rel=0.01)

    def test_on_demand_total_far_below_full_pin(self):
        """The Figure 6 economics: an app touching 1 GiB of a 1.6 TB
        container pays ~1/1600th of the full-pin cost."""
        from repro.memory import full_pin_seconds

        hv, c, pvdma = make_setup(memory=int(1.6e12))
        cost = pvdma.dma_prepare(c, 0x0, 1 * GiB)
        assert cost < full_pin_seconds(int(1.6e12)) / 1000

    def test_release_unmaps_when_last_reference_drops(self):
        hv, c, pvdma = make_setup()
        pvdma.dma_prepare(c, 0x0, 4096)
        pvdma.dma_prepare(c, 0x2000, 4096)  # second ref on same block
        pvdma.dma_release(c, 0x0, 4096)
        assert hv.iommu.is_mapped(c.domain_name, 0x0)  # still referenced
        pvdma.dma_release(c, 0x2000, 4096)
        assert not hv.iommu.is_mapped(c.domain_name, 0x0)

    def test_release_unprepared_rejected(self):
        hv, c, pvdma = make_setup()
        with pytest.raises(PvdmaError):
            pvdma.dma_release(c, 0x0, 4096)

    def test_full_pin_container_rejected(self):
        hv, c, pvdma = make_setup(mode=MemoryMode.FULL_PIN)
        with pytest.raises(PvdmaError):
            pvdma.dma_prepare(c, 0x0, 4096)

    def test_block_with_hole_maps_and_unmaps_around_the_gap(self):
        # RAM ends 1 MiB into the second block; a doorbell page is
        # direct-mapped past the gap, so both prepare and release must
        # skip the unbacked hole and still reach the doorbell.
        hv, c, pvdma = make_setup(memory=3 * MiB)
        doorbell_gpa = 3 * MiB + 512 * 1024
        doorbell = MemoryRegion(
            0xF000_0000, calibration.DOORBELL_PAGE_BYTES,
            AddressSpace.HPA, MemoryKind.DEVICE_MMIO,
        )
        hv.mmu.register_direct_map(c.name, doorbell_gpa, doorbell)
        assert pvdma.dma_prepare(c, 2 * MiB, 4096) > 0
        domain = c.domain_name
        assert hv.iommu.is_mapped(domain, 2 * MiB)
        assert hv.iommu.is_mapped(domain, 3 * MiB - 4096)
        assert not hv.iommu.is_mapped(domain, 3 * MiB)
        assert not hv.iommu.is_mapped(domain, doorbell_gpa - 4096)
        assert hv.iommu.is_mapped(domain, doorbell_gpa)
        assert not hv.iommu.is_mapped(domain, doorbell_gpa + 4096)
        assert hv.iommu.rc_translate(domain, doorbell_gpa).hpa == 0xF000_0000
        assert not hv.iommu.is_mapped(domain, 0)  # first block untouched
        pvdma.dma_release(c, 2 * MiB, 4096)
        assert not hv.iommu.is_mapped(domain, 2 * MiB)
        assert not hv.iommu.is_mapped(domain, 3 * MiB - 4096)
        assert not hv.iommu.is_mapped(domain, doorbell_gpa)
        assert len(hv.iommu.domain(domain).table) == 0

    def test_bad_lengths_rejected(self):
        hv, c, pvdma = make_setup()
        with pytest.raises(PvdmaError):
            pvdma.dma_prepare(c, 0x0, 0)
        with pytest.raises(PvdmaError):
            PvdmaEngine(hv, block_size=3 * MiB)


class TestDoorbellHazard:
    def doorbell_region(self):
        return MemoryRegion(
            0xF000_0000, calibration.DOORBELL_PAGE_BYTES,
            AddressSpace.HPA, MemoryKind.DEVICE_MMIO,
        )

    def test_gpa_mapped_doorbell_corrupts(self):
        """Figure 5a-e: with the vDB direct-mapped into guest RAM, the
        GPU's DMA to the recycled page lands on the RNIC doorbell."""
        hv, c, pvdma = make_setup()
        outcome = run_doorbell_hazard_scenario(
            hv, c, pvdma, self.doorbell_region(), use_shm_fix=False
        )
        assert outcome.corrupted
        assert outcome.dma_kind is MemoryKind.DEVICE_MMIO
        assert outcome.dma_hpa == 0xF000_0000
        assert outcome.dma_hpa != outcome.expected_hpa

    def test_shm_doorbell_fix_prevents_corruption(self):
        """Figure 5f: with the vDB in virtio shm I/O space, the PVDMA block
        holds only RAM and the recycled page translates correctly."""
        hv, c, pvdma = make_setup()
        outcome = run_doorbell_hazard_scenario(
            hv, c, pvdma, self.doorbell_region(), use_shm_fix=True
        )
        assert not outcome.corrupted
        assert outcome.dma_kind is MemoryKind.HOST_DRAM
        assert outcome.dma_hpa == outcome.expected_hpa

"""Unit tests for the PCIe substrate: BDFs, switch LUT, routing, ATC."""

import pytest

from repro import calibration
from repro.memory import Iommu, MemoryKind
from repro.pcie import (
    AddressType,
    Bdf,
    DeviceAtc,
    LutCapacityError,
    PcieError,
    PcieFabric,
    Tlp,
    build_ai_server_fabric,
)


class TestBdf:
    def test_parse_format_roundtrip(self):
        bdf = Bdf.parse("3a:00.1")
        assert str(bdf) == "3a:00.1"
        assert bdf == Bdf(0x3A, 0, 1)
        assert hash(bdf) == hash(Bdf(0x3A, 0, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            Bdf(300, 0, 0)
        with pytest.raises(ValueError):
            Bdf(0, 40, 0)
        with pytest.raises(ValueError):
            Bdf(0, 0, 9)
        with pytest.raises(ValueError):
            Bdf.parse("not-a-bdf")

    def test_ordering(self):
        assert Bdf(1, 0, 0) < Bdf(2, 0, 0) < Bdf(2, 0, 1)


def build_small_fabric():
    fabric = PcieFabric(host_memory_bytes=1 << 30)
    switch = fabric.add_switch(lut_capacity=4)
    rnic = fabric.add_endpoint(switch, "rnic0")
    gpu = fabric.add_gpu(switch, "gpu0", hbm_bytes=1 << 30)
    return fabric, switch, rnic, gpu


class TestRouting:
    def test_translated_tlp_routes_p2p_bypassing_rc(self):
        fabric, switch, rnic, gpu = build_small_fabric()
        switch.register_lut(rnic.bdf)
        tlp = Tlp.mem_write(
            gpu.hbm_address(0x1000), 4096, rnic.bdf, at=AddressType.TRANSLATED
        )
        delivery = fabric.route(tlp)
        assert delivery.destination is gpu
        assert not delivery.visited("RC")
        assert delivery.visited(switch.name)
        assert gpu.bytes_received == 4096

    def test_translated_p2p_requires_lut_registration(self):
        fabric, switch, rnic, gpu = build_small_fabric()
        tlp = Tlp.mem_write(
            gpu.hbm_address(0), 64, rnic.bdf, at=AddressType.TRANSLATED
        )
        with pytest.raises(PcieError):
            fabric.route(tlp)

    def test_untranslated_tlp_climbs_to_rc_for_iommu(self):
        fabric, switch, rnic, gpu = build_small_fabric()
        buffer = fabric.allocate_host_buffer(4096)
        fabric.iommu.create_domain("vm0")
        fabric.iommu.map("vm0", 0x0, buffer.start, 4096, kind=MemoryKind.HOST_DRAM)
        fabric.root_complex.bind_domain(rnic.bdf, "vm0")
        tlp = Tlp.mem_write(0x0, 4096, rnic.bdf, at=AddressType.UNTRANSLATED)
        delivery = fabric.route(tlp)
        assert delivery.destination is fabric.host_memory
        assert delivery.visited("RC")
        assert delivery.translated_address == buffer.start

    def test_untranslated_gdr_reflects_through_rc(self):
        """The HyV/MasQ GDR path: GPU-bound DMA without eMTT goes up to the
        RC, translates, and is reflected back down (Figure 14's 141 Gbps)."""
        fabric, switch, rnic, gpu = build_small_fabric()
        fabric.iommu.create_domain("vm0")
        fabric.iommu.map(
            "vm0", 0x0, gpu.hbm_address(0x0), 8192, kind=MemoryKind.GPU_HBM
        )
        fabric.root_complex.bind_domain(rnic.bdf, "vm0")
        tlp = Tlp.mem_write(0x1000, 4096, rnic.bdf, at=AddressType.UNTRANSLATED)
        delivery = fabric.route(tlp)
        assert delivery.destination is gpu
        assert delivery.visited("RC")
        assert fabric.root_complex.p2p_reflected_tlps == 1
        assert fabric.root_complex.p2p_reflected_bytes == 4096

    def test_unbound_requester_rejected_at_rc(self):
        fabric, switch, rnic, gpu = build_small_fabric()
        tlp = Tlp.mem_write(0x0, 64, rnic.bdf)
        with pytest.raises(PcieError):
            fabric.route(tlp)

    def test_p2p_latency_below_rc_path(self):
        fabric, switch, rnic, gpu = build_small_fabric()
        switch.register_lut(rnic.bdf)
        fabric.iommu.create_domain("vm0")
        fabric.iommu.map(
            "vm0", 0x0, gpu.hbm_address(0x0), 4096, kind=MemoryKind.GPU_HBM
        )
        fabric.root_complex.bind_domain(rnic.bdf, "vm0")
        p2p = fabric.route(
            Tlp.mem_write(gpu.hbm_address(0), 64, rnic.bdf, at=AddressType.TRANSLATED)
        )
        rc = fabric.route(Tlp.mem_write(0x0, 64, rnic.bdf))
        assert p2p.latency < rc.latency


class TestSwitchLut:
    def test_lut_capacity_enforced(self):
        fabric, switch, rnic, gpu = build_small_fabric()
        for i in range(switch.lut_capacity):
            switch.register_lut(Bdf(0x40, 0, i))
        assert switch.lut_free == 0
        with pytest.raises(LutCapacityError):
            switch.register_lut(rnic.bdf)
        switch.unregister_lut(Bdf(0x40, 0, 0))
        switch.register_lut(rnic.bdf)  # now fits

    def test_lut_register_idempotent(self):
        fabric, switch, rnic, gpu = build_small_fabric()
        switch.register_lut(rnic.bdf)
        switch.register_lut(rnic.bdf)
        assert switch.lut_free == switch.lut_capacity - 1


class TestAiServerFabric:
    def test_paper_server_shape(self):
        fabric, rnics, gpus = build_ai_server_fabric()
        assert len(rnics) == calibration.SERVER_RNICS
        assert len(gpus) == calibration.SERVER_GPUS
        assert len(fabric.switches) == calibration.SERVER_PCIE_SWITCHES
        # Rail alignment: RNIC i shares its switch with GPUs 2i, 2i+1.
        for i, rnic in enumerate(rnics):
            switch = fabric.switch_of(rnic.bdf)
            assert gpus[2 * i].port is switch
            assert gpus[2 * i + 1].port is switch

    def test_bdfs_unique(self):
        fabric, rnics, gpus = build_ai_server_fabric()
        bdfs = [f.bdf for f in rnics + gpus]
        assert len(set(bdfs)) == len(bdfs)

    def test_bad_shape_rejected(self):
        with pytest.raises(PcieError):
            build_ai_server_fabric(gpus=7, rnics=4, pcie_switches=4)


class TestDeviceAtc:
    def make_atc(self, capacity=4):
        iommu = Iommu()
        iommu.create_domain("vm0")
        iommu.map("vm0", 0x0, 0x100000, 64 * 4096, kind=MemoryKind.GPU_HBM)
        return iommu, DeviceAtc(iommu, "vm0", capacity_pages=capacity)

    def test_miss_then_hit(self):
        iommu, atc = self.make_atc()
        miss = atc.translate(0x10)
        hit = atc.translate(0x20)
        assert not miss.atc_hit and hit.atc_hit
        assert miss.hpa == 0x100010 and hit.hpa == 0x100020
        assert hit.latency < miss.latency
        assert hit.kind is MemoryKind.GPU_HBM

    def test_capacity_thrash(self):
        iommu, atc = self.make_atc(capacity=4)
        # Cyclic scan over 8 pages with a 4-page ATC: steady state is 0% hits.
        for _ in range(3):
            for page in range(8):
                atc.translate(page * 4096)
        atc.reset_counters()
        for page in range(8):
            atc.translate(page * 4096)
        assert atc.cache.hits == 0

    def test_invalidate_range(self):
        iommu, atc = self.make_atc()
        atc.translate(0x0)
        atc.translate(0x1000)
        atc.invalidate_range(0x0, 4096)
        assert ("vm0", 0x0) not in atc.cache
        assert ("vm0", 0x1000) in atc.cache

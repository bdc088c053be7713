"""PCIe functions: the endpoints of the fabric.

A :class:`PcieFunction` owns a BDF and a set of BAR windows carved out of
the host-physical address map.  GPUs additionally expose an HBM aperture
(the window GDR peer-to-peer writes land in) and a register BAR.
"""

from repro.memory.address import AddressSpace, MemoryKind, MemoryRegion

#: Size of a GPU's register BAR.
_GPU_REGISTER_BYTES = 16 << 20


class PcieError(Exception):
    """Base class for PCIe fabric failures."""


class PcieFunction:
    """A single PCIe function (physical, VF, or the base of SF slices)."""

    def __init__(self, name, bdf):
        self.name = name
        self.bdf = bdf
        self.bars = []  # list of MemoryRegion in HPA space
        self.port = None  # set when attached to a switch/RC port
        self.received_tlps = []
        self.bytes_received = 0
        self.keep_tlp_log = False

    def add_bar(self, region):
        """Register a BAR window (an HPA MemoryRegion) for this function."""
        if region.space is not AddressSpace.HPA:
            raise PcieError("BARs live in HPA space, got %s" % region.space)
        self.bars.append(region)
        return region

    def claims(self, address, length=1):
        """The BAR containing [address, address+length), or ``None``."""
        for bar in self.bars:
            if bar.contains(address, length):
                return bar
        return None

    def on_tlp(self, tlp):
        """Accept a delivered TLP; subclasses may extend."""
        self.bytes_received += tlp.length
        if self.keep_tlp_log:
            self.received_tlps.append(tlp)

    def __repr__(self):
        return "%s(%r, bdf=%s, bars=%d)" % (
            type(self).__name__,
            self.name,
            self.bdf,
            len(self.bars),
        )


class GpuDevice(PcieFunction):
    """A GPU with an HBM aperture BAR (GDR target) and a register BAR."""

    def __init__(self, name, bdf, hbm_bytes):
        super().__init__(name, bdf)
        self.hbm_bytes = hbm_bytes
        self.hbm_bar = None
        self.register_bar = None
        self.dma_reads = 0

    def install_bars(self, hpa_map):
        """Allocate the HBM aperture and register window from the HPA map."""
        self.hbm_bar = self.add_bar(
            hpa_map.allocate(self.hbm_bytes, MemoryKind.GPU_HBM, alignment=1 << 20)
        )
        self.register_bar = self.add_bar(
            hpa_map.allocate(_GPU_REGISTER_BYTES, MemoryKind.DEVICE_MMIO,
                             alignment=4096)
        )
        return self.hbm_bar

    def hbm_address(self, offset):
        """HPA of a byte at ``offset`` inside this GPU's memory."""
        if not 0 <= offset < self.hbm_bytes:
            raise PcieError(
                "HBM offset 0x%x outside %d-byte GPU memory" % (offset, self.hbm_bytes)
            )
        return self.hbm_bar.start + offset

    def hbm_region(self, offset, length):
        return MemoryRegion(
            self.hbm_address(offset), length, AddressSpace.HPA, MemoryKind.GPU_HBM
        )


class HostMemoryTarget(PcieFunction):
    """Pseudo-function representing main memory behind the root complex."""

    def __init__(self, dram_region):
        super().__init__("host-dram", None)
        self.add_bar(dram_region)

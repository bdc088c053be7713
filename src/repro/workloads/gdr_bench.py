"""GDR write sweeps: the ATC-miss experiment (Figure 8) and the GDR
datapath comparison (Figure 14).

The Figure 8 experiment is rebuilt mechanistically: 16 connections each
own a GPU buffer of the message size; the client issues GDR writes
round-robin across connections at 4 KiB page granularity; every page
access runs through the RNIC's real ATC (bounded LRU) and, on miss,
through ATS into the IOMMU's real IOTLB.  The bandwidth knees at 2 MB and
32 MB emerge from those two capacities — nothing is special-cased per
message size.
"""

from repro import calibration
from repro.memory.address import MemoryKind
from repro.memory.iommu import Iommu
from repro.pcie.atc import DeviceAtc
from repro.sim.units import transfer_time

#: Pages measured per sweep point; the access pattern is cyclic, so a
#: contiguous window this long is representative of larger working sets.
_MEASURE_CAP_PAGES = 200_000


class GdrSweepRow:
    """One message-size point of a GDR sweep."""

    __slots__ = ("message_bytes", "rate", "atc_hit_rate", "iotlb_hit_rate",
                 "avg_pcie_latency")

    def __init__(self, message_bytes, rate, atc_hit_rate=None,
                 iotlb_hit_rate=None, avg_pcie_latency=None):
        self.message_bytes = message_bytes
        self.rate = rate
        self.atc_hit_rate = atc_hit_rate
        self.iotlb_hit_rate = iotlb_hit_rate
        #: Neohost-style counter: mean per-operation PCIe latency.  The
        #: paper confirmed the Figure 8 drops by watching this rise.
        self.avg_pcie_latency = avg_pcie_latency

    @property
    def gbps(self):
        return self.rate / 1e9

    def __repr__(self):
        return "GdrSweepRow(%dB, %.1fGbps)" % (self.message_bytes, self.gbps)


def default_gdr_sizes(start=64 * 1024, stop=64 * 1024 * 1024):
    sizes = []
    size = start
    while size <= stop:
        sizes.append(size)
        size *= 2
    return sizes


class AtcMissExperiment:
    """The Figure 8 client: 16 connections, round-robin page accesses."""

    def __init__(self, atc_capacity=calibration.ATC_CAPACITY_PAGES):
        self.atc_capacity = atc_capacity

    def _build(self, message_bytes):
        """IOMMU domain mapping every connection's GPU buffer, plus an ATC."""
        iommu = Iommu()
        iommu.create_domain("gdr")
        hbm_base = 0x100_0000_0000
        for conn in range(calibration.FIG8_CONNECTIONS):
            da = conn * message_bytes
            iommu.map(
                "gdr", da, hbm_base + da, message_bytes,
                kind=MemoryKind.GPU_HBM, pin=False,
            )
        atc = DeviceAtc(
            iommu, "gdr",
            capacity_pages=self.atc_capacity,
            page_size=calibration.GDR_PAGE_BYTES,
        )
        return iommu, atc

    def _access_stream(self, message_bytes):
        """Round-robin page addresses: one page per connection per turn."""
        pages_per_conn = max(1, message_bytes // calibration.GDR_PAGE_BYTES)
        for page_index in range(pages_per_conn):
            offset = page_index * calibration.GDR_PAGE_BYTES
            for conn in range(calibration.FIG8_CONNECTIONS):
                yield conn * message_bytes + offset

    def measure(self, message_bytes):
        """Run one sweep point; returns a :class:`GdrSweepRow`.

        One full warm cycle populates the caches; the measurement window
        (capped for very large working sets — the pattern is cyclic, so a
        contiguous window is representative) accumulates per-page stalls.
        """
        iommu, atc = self._build(message_bytes)
        for address in self._access_stream(message_bytes):
            atc.translate(address)
        atc.reset_counters()
        iommu.iotlb.reset_counters()
        wire_page = transfer_time(
            calibration.GDR_PAGE_BYTES, calibration.CX6_GDR_PEAK_RATE
        )
        total_time = 0.0
        pcie_latency_sum = 0.0
        pages_measured = 0
        for address in self._access_stream(message_bytes):
            result = atc.translate(address)
            # On-chip ATC hits are fully pipelined; a miss stalls for the
            # ATS round trip amortized over the outstanding-request window.
            stall = (
                0.0 if result.atc_hit
                else result.latency / calibration.ATS_PIPELINE_DEPTH
            )
            total_time += wire_page + stall
            pcie_latency_sum += result.latency
            pages_measured += 1
            if pages_measured >= _MEASURE_CAP_PAGES:
                break
        rate = pages_measured * calibration.GDR_PAGE_BYTES * 8.0 / total_time
        return GdrSweepRow(
            message_bytes,
            rate,
            atc_hit_rate=atc.cache.hit_rate,
            iotlb_hit_rate=iommu.iotlb.hit_rate,
            avg_pcie_latency=pcie_latency_sum / pages_measured,
        )

    def sweep(self, sizes=None):
        sizes = sizes if sizes is not None else default_gdr_sizes()
        return [self.measure(size) for size in sizes]


def emtt_sweep(sizes=None):
    """The vStellar curve of Figure 8: eMTT pages pay only the on-chip
    lookup, so bandwidth is flat across working-set sizes."""
    sizes = sizes if sizes is not None else default_gdr_sizes()
    # eMTT lookups are on-chip SRAM reads, fully pipelined against the
    # wire: bandwidth is flat at line rate for every working-set size.
    rate = calibration.CX6_GDR_PEAK_RATE
    return [GdrSweepRow(size, rate, atc_hit_rate=None) for size in sizes]


def gdr_datapath_curve(mode, sizes=None,
                       wire_rate=calibration.GDR_P2P_PEAK_RATE):
    """Figure 14: GDR write throughput of one datapath over message sizes.

    ``mode``: 'vstellar' / 'bare_metal' (switch P2P at the 393 Gbps P2P
    ceiling) or 'hyv_masq' (RC-reflected, capped at the RC's 141 Gbps).
    """
    if sizes is None:
        sizes = default_gdr_sizes(start=4 * 1024, stop=8 * 1024 * 1024)
    if mode in ("vstellar", "bare_metal"):
        ceiling = wire_rate
    elif mode == "hyv_masq":
        ceiling = min(wire_rate, calibration.GDR_RC_ROUTED_RATE)
    else:
        raise ValueError("unknown GDR datapath %r" % mode)
    rows = []
    for size in sizes:
        per_message = (
            calibration.RDMA_BASE_LATENCY_SECONDS / 64  # pipelined ops
            + transfer_time(size, ceiling)
        )
        rows.append(GdrSweepRow(size, size * 8.0 / per_message))
    return rows

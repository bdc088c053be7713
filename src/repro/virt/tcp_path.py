"""The non-RDMA (TCP) datapath and its virtualization/IOMMU costs.

Two paper facts live here:

* Section 4: Stellar carries TCP over virtio-net + scalable functions +
  VxLAN, "a performance penalty of approximately 5% compared to the
  vfio/VF/VxLAN approach" — acceptable because TCP in AI jobs is control
  traffic.
* Section 3.1 problem 4: to guarantee GDR the affected server model runs
  the IOMMU in ``nopt`` mode, which forces the host kernel's TCP stack to
  DMA through I/O virtual addresses — a measurable per-page translation
  tax on host TCP throughput.
"""

import enum

from repro import calibration
from repro.memory.iommu import Iommu, IommuMode
from repro.sim.units import Gbps


class TcpDatapath(enum.Enum):
    VFIO_VF = "vfio/VF/VxLAN"          #: the legacy passthrough path
    VIRTIO_SF = "virtio/SF/VxLAN"      #: Stellar's choice (dynamic, light)


#: Baseline host TCP goodput on the 2x200G NIC with large flows.
TCP_BASELINE_RATE = Gbps(180.0)

#: Kernel DMA chunk size for TCP (pages per translation).
_TCP_DMA_PAGE_BYTES = 4096

#: Concurrent kernel DMA mappings in flight; IOVA translation walks are
#: amortized over this window, like the RNIC's ATS pipeline.
_TCP_DMA_PIPELINE_DEPTH = 16


def tcp_throughput(datapath, iommu=None, bytes_in_flight=64 * 1024 * 1024):
    """Model host/guest TCP goodput for a datapath + IOMMU mode.

    The virtio/SF path pays the paper's ~5% softirq/vring penalty.  An
    ``nopt`` IOMMU additionally charges the kernel one IOVA translation
    per DMA'd page, with the real IOTLB deciding hits and misses.
    """
    rate = TCP_BASELINE_RATE
    if datapath is TcpDatapath.VIRTIO_SF:
        rate *= 1.0 - calibration.VIRTIO_TCP_PENALTY
    if iommu is not None and iommu.mode is IommuMode.NOPT:
        domain = "host-kernel-tcp"
        if not iommu.has_domain(domain):
            iommu.create_domain(domain)
            iommu.map(domain, 0x0, 0x4000_0000, bytes_in_flight, pin=False)
        # Charge the per-page IOVA translation against the transfer time.
        pages = bytes_in_flight // _TCP_DMA_PAGE_BYTES
        translation = sum(
            iommu.rc_translate(domain, page * _TCP_DMA_PAGE_BYTES).latency
            for page in range(pages)
        ) / _TCP_DMA_PIPELINE_DEPTH
        wire_time = bytes_in_flight * 8.0 / rate
        rate = bytes_in_flight * 8.0 / (wire_time + translation)
    return rate


def compare_tcp_datapaths():
    """The Section 4 comparison table: VF vs SF, with the nopt IOMMU tax.

    Returns {datapath name: goodput bits/s}.
    """
    results = {}
    for datapath in TcpDatapath:
        iommu = Iommu(mode=IommuMode.NOPT)
        results[datapath.value] = tcp_throughput(datapath, iommu=iommu)
    return results

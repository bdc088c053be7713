"""RNIC DMA datapaths: how a verbs access becomes PCIe TLPs.

Three datapaths cover every system in the paper:

* ``DIRECT`` — the MTT already holds final HPAs (bare-metal, or Stellar's
  eMTT).  GPU-owned pages are emitted with AT=TRANSLATED and ride switch
  P2P at full rate (Figure 7); host pages go to the RC, whose path to DRAM
  is full-rate.
* ``ATS_ATC`` — the MTT holds device addresses; each page consults the
  RNIC's ATC and, on a miss, the IOMMU via ATS.  This is the CX6 baseline
  of Figure 8, where translation stalls cost real bandwidth.
* ``RC_ROUTED`` — the MTT holds device addresses and the RNIC emits
  untranslated TLPs that the root complex translates and reflects.  This is
  the HyV/MasQ GDR path of Figure 14, rate-capped by the RC.
"""

import enum

from repro import calibration
from repro.memory.address import MemoryKind
from repro.pcie.tlp import AddressType


class DatapathMode(enum.Enum):
    DIRECT = "direct"
    ATS_ATC = "ats_atc"
    RC_ROUTED = "rc_routed"


class AccessResult:
    """One page's translation outcome: what to emit and what it stalled."""

    __slots__ = ("address", "at", "kind", "stall", "atc_hit", "iotlb_hit")

    def __init__(self, address, at, kind, stall, atc_hit=None, iotlb_hit=None):
        self.address = address
        self.at = at
        self.kind = kind
        self.stall = stall
        self.atc_hit = atc_hit
        self.iotlb_hit = iotlb_hit

    def __repr__(self):
        return "AccessResult(0x%x, %s, stall=%.0fns)" % (
            self.address,
            self.at.name,
            self.stall * 1e9,
        )


class RnicDatapath:
    """Translates (mtt_key, va) accesses into TLP parameters + stall time."""

    def __init__(self, mtt, mode, atc=None):
        if mode is DatapathMode.ATS_ATC and atc is None:
            raise ValueError("ATS_ATC datapath requires a DeviceAtc")
        self.mtt = mtt
        self.mode = mode
        self.atc = atc

    def access(self, key, va, length=1):
        """Translate one access (within a single page) for emission."""
        chunks, entry = self.mtt.lookup(key, va, length)
        target = chunks[0][1]
        stall = calibration.MTT_LOOKUP_SECONDS
        if entry.translated:
            # Final HPA in hand (bare-metal registration or an eMTT GPU
            # entry): emit pre-translated so switches route P2P / the RC
            # skips the IOMMU.
            return AccessResult(target, AddressType.TRANSLATED, entry.kind, stall)
        if self.mode is DatapathMode.ATS_ATC:
            result = self.atc.translate(target)
            # ATS requests are pipelined; the per-access cost is the miss
            # latency amortized over the outstanding-request window.
            stall += (
                result.latency
                if result.atc_hit
                else result.latency / calibration.ATS_PIPELINE_DEPTH
            )
            return AccessResult(
                result.hpa,
                AddressType.TRANSLATED,
                result.kind,
                stall,
                atc_hit=result.atc_hit,
                iotlb_hit=result.iotlb_hit,
            )
        # RC_ROUTED: emit the device address untranslated and let the root
        # complex do the work (and become the bottleneck).
        return AccessResult(target, AddressType.UNTRANSLATED, entry.kind, stall)

    def rate_ceiling(self, kind, wire_rate):
        """Sustained-rate cap imposed by the datapath for this memory kind."""
        if self.mode is DatapathMode.RC_ROUTED and kind is MemoryKind.GPU_HBM:
            return min(wire_rate, calibration.GDR_RC_ROUTED_RATE)
        return wire_rate

    def __repr__(self):
        return "RnicDatapath(mode=%s)" % self.mode.value

"""PCIe root complex: hosts the IOMMU and reflects peer traffic.

Untranslated device DMA climbs to the RC, gets translated by the IOMMU,
and is delivered either to main memory or *reflected* back down to a peer
device.  The reflected path is the HyV/MasQ GDR datapath of Figure 14 —
it works, but the RC's peer-to-peer ceiling caps it at ~141 Gbps versus
393 Gbps for switch-level P2P, which is exactly why eMTT exists.
"""

from repro import calibration
from repro.memory.address import MemoryKind
from repro.pcie.device import PcieError
from repro.pcie.switch import PCIE_HOP_SECONDS

#: Internal RC forwarding cost (ordering, IOMMU queueing), per TLP.
RC_PROCESS_SECONDS = 250e-9


class RootComplex:
    """The root of the PCIe tree, owning the IOMMU and host memory port."""

    def __init__(self, iommu, host_memory, name="RC"):
        self.name = name
        self.iommu = iommu
        self.host_memory = host_memory  # HostMemoryTarget
        self._ports = []  # downstream switches
        self._domains = {}  # requester Bdf -> IOMMU domain name
        self.tlps_processed = 0
        self.p2p_reflected_tlps = 0
        self.p2p_reflected_bytes = 0
        #: Sustained ceiling for RC-reflected peer traffic (Figure 14).
        self.p2p_ceiling_rate = calibration.GDR_RC_ROUTED_RATE

    def snapshot(self):
        """Public counter snapshot: processed and reflected TLP totals."""
        return {
            "tlps_processed": self.tlps_processed,
            "p2p_reflected_tlps": self.p2p_reflected_tlps,
            "p2p_reflected_bytes": self.p2p_reflected_bytes,
            "domains_bound": len(self._domains),
        }

    def add_port(self, switch):
        self._ports.append(switch)
        switch.upstream = self
        return switch

    def bind_domain(self, bdf, domain_name, pasid=None):
        """Associate a requester (BDF, optional PASID) with an IOMMU domain.

        PASIDs let many virtual devices share one BDF yet keep separate
        domains — how vStellar devices stay isolated without new BDFs.
        """
        self._domains[(bdf, pasid)] = domain_name

    def unbind_domain(self, bdf, pasid=None):
        self._domains.pop((bdf, pasid), None)

    def domain_of(self, bdf, pasid=None):
        try:
            return self._domains[(bdf, pasid)]
        except KeyError:
            pass
        try:
            return self._domains[(bdf, None)]
        except KeyError:
            raise PcieError("requester %s (pasid=%r) has no IOMMU domain" % (bdf, pasid))

    def receive(self, tlp, path, latency):
        """Process a TLP forwarded up from a switch.

        Returns ``(destination, path, latency, final_address)``.
        """
        path.append(self.name)
        latency += RC_PROCESS_SECONDS
        self.tlps_processed += 1
        address = tlp.address
        kind = None
        if not tlp.is_translated:
            domain = self.domain_of(tlp.requester, tlp.pasid)
            result = self.iommu.rc_translate(domain, address)
            address = result.hpa
            kind = result.kind
            latency += result.latency
        # Deliver: main memory, or reflect to the peer device owning the BAR.
        if self.host_memory.claims(address, tlp.length) is not None:
            path.append(self.host_memory.name)
            self.host_memory.on_tlp(tlp)
            return self.host_memory, path, latency, address
        for switch in self._ports:
            claimant = switch.find_claimant(address, tlp.length)
            if claimant is not None:
                self.p2p_reflected_tlps += 1
                self.p2p_reflected_bytes += tlp.length
                path.append(switch.name)
                path.append(claimant.name)
                latency += 2 * PCIE_HOP_SECONDS
                claimant.on_tlp(tlp)
                return claimant, path, latency, address
        raise PcieError(
            "TLP to 0x%x (%s) matches neither host memory nor any BAR"
            % (address, kind.value if isinstance(kind, MemoryKind) else "?")
        )

    def __repr__(self):
        return "RootComplex(ports=%d, domains=%d, tlps=%d)" % (
            len(self._ports),
            len(self._domains),
            self.tlps_processed,
        )

"""eMTT: the extended Memory Translation Table (Section 6).

The eMTT stores, per registered region, the *final* host-physical
translation and the memory owner (main memory vs GPU).  That single bit of
ownership lets the RNIC emit GPU-bound TLPs with AT=TRANSLATED so PCIe
switches route them peer-to-peer without consulting the root complex —
erasing the ATC-miss cliff of Figure 8 and the RC bottleneck of Figure 14.

This module provides the registration helpers that populate RNIC MTTs in
two of the three regimes the paper compares (the third, the CX6-style
ATS/ATC baseline, is the ``ATS_ATC`` datapath mode of
:mod:`repro.rnic.datapath`):

* :class:`EmttRegistrar` — Stellar: final HPAs + owner kind (translated).
* :class:`RcRoutedRegistrar` — HyV/MasQ: device addresses emitted
  untranslated, leaving all translation (and all GPU P2P reflection) to
  the root complex.
"""

from repro.memory.address import MemoryKind
from repro.rnic.verbs import VerbsError


class EmttError(VerbsError):
    """Invalid eMTT registration."""


def host_gpa_chunks(container, gva_region):
    """GVA -> GPA chunks: the device-address view a non-eMTT RNIC stores."""
    return container.gva_to_gpa_chunks(gva_region.start, gva_region.length)


def gpu_hpa_chunks(gpu, offset, length, va_base=None):
    """A GPU buffer as one HPA chunk inside the GPU's HBM BAR aperture."""
    if va_base is None:
        # By convention GDR buffers use the BAR address as their VA too.
        va_base = gpu.hbm_address(offset)
    return [(va_base, gpu.hbm_address(offset), length)]


class EmttRegistrar:
    """Registers regions the Stellar way: translated + owner-typed."""

    def __init__(self, nic):
        self.nic = nic

    def register_host(self, pd, container, gva_region):
        """Register guest host-memory.

        Per Figure 7, host-memory entries keep the *device address* (the
        GPA) and are emitted with AT=UNTRANSLATED so the IOMMU still
        performs — and protects — the final translation; only GPU entries
        bypass the root complex.
        """
        chunks = host_gpa_chunks(container, gva_region)
        return self.nic.reg_mr(
            pd, gva_region.start, chunks, MemoryKind.HOST_DRAM, translated=False
        )

    def register_gpu(self, pd, gpu, offset, length, va_base=None):
        """Register GPU memory; the owner bit routes it P2P (Figure 7)."""
        chunks = gpu_hpa_chunks(gpu, offset, length, va_base)
        return self.nic.reg_mr(
            pd, chunks[0][0], chunks, MemoryKind.GPU_HBM, translated=True
        )


class RcRoutedRegistrar:
    """Registers regions the HyV/MasQ way: untranslated, RC does the rest.

    GPU-bound traffic is reflected through the root complex and capped at
    its peer-to-peer ceiling — the 141 Gbps of Figure 14.
    """

    def __init__(self, nic, iommu, domain_name):
        if nic.mode.value != "rc_routed":
            raise EmttError(
                "RcRoutedRegistrar requires an RC_ROUTED-mode RNIC, got %s"
                % nic.mode.value
            )
        self.nic = nic
        self.iommu = iommu
        self.domain_name = domain_name

    def register_gpu(self, pd, gpu, offset, length, da_base):
        self.iommu.map(
            self.domain_name,
            da_base,
            gpu.hbm_address(offset),
            length,
            kind=MemoryKind.GPU_HBM,
            pin=False,
        )
        return self.nic.reg_mr(
            pd, da_base, [(da_base, da_base, length)], MemoryKind.GPU_HBM,
            translated=False,
        )

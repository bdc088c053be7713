"""IOMMU with IOTLB and Address Translation Services (ATS).

The IOMMU lives in the PCIe root complex (Figure 1b).  It owns per-domain
DA->HPA interval maps, a capacity-bounded IOTLB, and an ATS responder that
devices (via their ATC) query.  Both the legacy VFIO framework and Stellar's
PVDMA program mappings here; the difference is *when* and *how much*.
"""

import enum

from repro import calibration
from repro.memory.address import AddressSpace, align_down, check_alignment
from repro.memory.caches import TranslationCache
from repro.memory.page_table import PageFault
from repro.memory.pinning import PinManager
from repro.memory.range_table import RangeMap


class IommuMode(enum.Enum):
    """Kernel IOMMU operating mode (Section 3.1 problem 4).

    ``PT`` (passthrough) lets kernel DMA use physical addresses directly but
    conflicts with ATS on some servers; ``NOPT`` enables full translation,
    required for GDR in RunD containers, at a cost to host TCP.
    """

    PT = "pt"
    NOPT = "nopt"


class AtsResult:
    """Outcome of an ATS (or RC-inline) translation request."""

    __slots__ = ("hpa", "kind", "latency", "iotlb_hit")

    def __init__(self, hpa, kind, latency, iotlb_hit):
        self.hpa = hpa
        self.kind = kind
        self.latency = latency
        self.iotlb_hit = iotlb_hit

    def __repr__(self):
        return "AtsResult(hpa=0x%x, kind=%s, latency=%.2fus, iotlb_hit=%s)" % (
            self.hpa,
            self.kind.value if self.kind else None,
            self.latency * 1e6,
            self.iotlb_hit,
        )


class IommuDomain:
    """One protection domain: a DA->HPA interval map plus pin bookkeeping."""

    def __init__(self, name, pin_manager):
        self.name = name
        self.table = RangeMap(AddressSpace.DA, AddressSpace.HPA)
        self.pins = pin_manager
        self.map_calls = 0
        self.unmap_calls = 0

    def __repr__(self):
        return "IommuDomain(%r, %d intervals, %d bytes)" % (
            self.name,
            len(self.table),
            self.table.mapped_bytes,
        )


class Iommu:
    """The root-complex IOMMU.

    The IOTLB keys by ``(domain, page)``.  Unmapping a range and
    destroying a domain drop only that domain's IOTLB keys through the
    cache's per-domain index, and :meth:`ats_translate_many` answers a
    tenant's cold first touch in one batch.
    """

    def __init__(
        self,
        mode=IommuMode.NOPT,
        page_size=4096,
        iotlb_capacity=calibration.IOTLB_CAPACITY_PAGES,
        ats_enabled=True,
    ):
        self.mode = mode
        self.page_size = page_size
        self.ats_enabled = ats_enabled
        self.iotlb = TranslationCache(iotlb_capacity, name="IOTLB")
        self._domains = {}
        self.total_config_seconds = 0.0

    def snapshot(self):
        """Public IOTLB/domain counter snapshot."""
        snap = {"mode": self.mode.value, "domains": len(self._domains),
                "total_config_seconds": self.total_config_seconds}
        snap.update(
            ("iotlb_%s" % key, value) for key, value in self.iotlb.snapshot().items()
        )
        return snap

    def register_metrics(self, registry, prefix="mem.iommu"):
        """Expose IOTLB health under ``mem.iommu.*``."""
        registry.add_provider(prefix, self.snapshot)
        return registry

    # -- domain lifecycle ---------------------------------------------------

    def create_domain(self, name, pin_block_size=calibration.PVDMA_BLOCK_BYTES):
        if name in self._domains:
            raise ValueError("IOMMU domain %r already exists" % name)
        domain = IommuDomain(name, PinManager(block_size=pin_block_size))
        self._domains[name] = domain
        return domain

    def destroy_domain(self, name):
        domain = self._domains.pop(name, None)
        if domain is None:
            raise KeyError("no IOMMU domain named %r" % name)
        self.iotlb.invalidate_domain(name)
        return domain

    def domain(self, name):
        try:
            return self._domains[name]
        except KeyError:
            raise KeyError("no IOMMU domain named %r" % name)

    def has_domain(self, name):
        return name in self._domains

    # -- mapping ------------------------------------------------------------

    def map(self, domain_name, da, hpa, length, kind=None, pin=True):
        """Install a DA->HPA mapping and (optionally) pin the backing.

        Returns the simulated seconds spent configuring the IOMMU — the
        cost that makes full-pin container start-up slow (Figure 6).
        """
        check_alignment(da, self.page_size, "DA")
        check_alignment(hpa, self.page_size, "HPA")
        domain = self.domain(domain_name)
        domain.table.map_range(da, hpa, length, kind=kind, overwrite=True)
        domain.map_calls += 1
        cost = 0.0
        if pin:
            cost = domain.pins.pin(hpa, length)
        self.total_config_seconds += cost
        return cost

    def unmap(self, domain_name, da, length):
        """Remove mappings and unpin them; invalidates the affected IOTLB
        entries."""
        domain = self.domain(domain_name)
        interval = domain.table.lookup(da)
        hpa = interval.translate(da) if interval else None
        domain.table.unmap_range(da, length)
        domain.unmap_calls += 1
        self.iotlb.invalidate_domain(
            domain_name, align_down(da, self.page_size), da + length
        )
        if hpa is not None:
            domain.pins.unpin(hpa, length)

    def is_mapped(self, domain_name, da):
        return self.domain(domain_name).table.is_mapped(da)

    # -- translation --------------------------------------------------------

    def translate(self, domain_name, da, write=False):
        """Raw table translation (no cache modelling)."""
        return self.domain(domain_name).table.translate(da, write=write)

    def _cached_translate(self, domain_name, da, miss_latency, hit_latency):
        page = align_down(da, self.page_size)
        key = (domain_name, page)
        hit, cached = self.iotlb.lookup(key)
        if hit:
            hpa_page, kind = cached
            return AtsResult(hpa_page + (da - page), kind, hit_latency, True)
        domain = self.domain(domain_name)
        interval = domain.table.lookup(page)
        if interval is None:
            raise PageFault(da, AddressSpace.DA, "DMA to unmapped page")
        hpa_page = interval.translate(page)
        self.iotlb.insert(key, (hpa_page, interval.kind))
        return AtsResult(hpa_page + (da - page), interval.kind, miss_latency, False)

    def rc_translate(self, domain_name, da):
        """Translate an untranslated TLP arriving at the root complex.

        Same IOTLB dynamics as ATS but without the device-side PCIe round
        trip — the request is already at the RC.
        """
        return self._cached_translate(
            domain_name, da, calibration.IOTLB_WALK_SECONDS, 0.0
        )

    def ats_translate(self, domain_name, da):
        """Answer a device's ATS translation request (Figure 1c step 4).

        The reply latency depends on whether the IOTLB covers the page: a
        hit costs one PCIe round trip; a miss adds a page-table walk.
        """
        if not self.ats_enabled:
            raise PageFault(da, AddressSpace.DA, "ATS is disabled on this IOMMU")
        return self._cached_translate(
            domain_name,
            da,
            calibration.ATS_QUERY_SECONDS + calibration.IOTLB_WALK_SECONDS,
            calibration.ATS_QUERY_SECONDS,
        )

    def ats_translate_many(self, domain_name, das):
        """Answer one ATS request per device address, as a batch.

        Returns ``(values, latencies)``: per address the ``(hpa, kind)``
        of the reply and its latency, equal to a loop of
        :meth:`ats_translate` calls, with the same IOTLB state after.
        When the IOTLB holds no key of the domain and the addresses fall
        on distinct pages, every request is a miss that installs its
        page, so the pages are looked up in the domain's table in one
        batch and installed with one
        :meth:`~repro.memory.caches.TranslationCache.insert_cold`.
        Otherwise, or if any page is unmapped, the per-request loop
        runs, which raises the same :class:`PageFault` at the same
        address with the same partial IOTLB state.
        """
        page_size = self.page_size
        pages = [da - da % page_size for da in das]
        domain = self._domains.get(domain_name)
        if (self.ats_enabled and domain is not None
                and not self.iotlb.holds_domain(domain_name)
                and len(set(pages)) == len(pages)):
            intervals = domain.table.lookup_many(pages)
            if None not in intervals:
                values = [
                    (interval.dst + (page - interval.src), interval.kind)
                    for interval, page in zip(intervals, pages)
                ]
                self.iotlb.insert_cold(domain_name, pages, values)
                latency = (calibration.ATS_QUERY_SECONDS
                           + calibration.IOTLB_WALK_SECONDS)
                if any(da != page for da, page in zip(das, pages)):
                    values = [(hpa + (da - page), kind) for (hpa, kind), da, page
                              in zip(values, das, pages)]
                return values, [latency] * len(values)
        values = []
        latencies = []
        for da in das:
            result = self.ats_translate(domain_name, da)
            values.append((result.hpa, result.kind))
            latencies.append(result.latency)
        return values, latencies

    def __repr__(self):
        return "Iommu(mode=%s, domains=%d, %s)" % (
            self.mode.value,
            len(self._domains),
            self.iotlb,
        )

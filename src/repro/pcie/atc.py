"""Device-side Address Translation Cache (ATC).

The ATC caches ATS replies inside a PCIe endpoint (an RNIC, here).  Its
bounded capacity is the root cause of the Figure 8 GDR throughput collapse:
once 16 connections' worth of 4 KiB pages exceed the ATC, every access pays
an ATS round trip, and past the IOTLB reach it also pays a table walk.
"""

from repro import calibration
from repro.memory.address import align_down
from repro.memory.caches import TranslationCache


class AtcTranslation:
    """Result of translating one device address through the ATC/ATS path."""

    __slots__ = ("hpa", "kind", "latency", "atc_hit", "iotlb_hit")

    def __init__(self, hpa, kind, latency, atc_hit, iotlb_hit):
        self.hpa = hpa
        self.kind = kind
        self.latency = latency
        self.atc_hit = atc_hit
        self.iotlb_hit = iotlb_hit

    def __repr__(self):
        return "AtcTranslation(hpa=0x%x, atc_hit=%s, iotlb_hit=%s)" % (
            self.hpa,
            self.atc_hit,
            self.iotlb_hit,
        )


class DeviceAtc:
    """An endpoint's ATC bound to one IOMMU domain via ATS.

    Its cache keys by ``(domain_name, page)`` like every
    :class:`~repro.memory.caches.TranslationCache`.
    """

    def __init__(
        self,
        iommu,
        domain_name,
        capacity_pages=calibration.ATC_CAPACITY_PAGES,
        page_size=calibration.GDR_PAGE_BYTES,
        name="ATC",
    ):
        self.iommu = iommu
        self.domain_name = domain_name
        self.page_size = page_size
        self.cache = TranslationCache(capacity_pages, name=name)

    def translate(self, da):
        """Translate a device address, consulting the ATC then ATS."""
        page = align_down(da, self.page_size)
        key = (self.domain_name, page)
        hit, cached = self.cache.lookup(key)
        if hit:
            hpa_page, kind = cached
            return AtcTranslation(
                hpa_page + (da - page),
                kind,
                calibration.ATC_HIT_SECONDS,
                True,
                True,
            )
        result = self.iommu.ats_translate(self.domain_name, page)
        self.cache.insert(key, (result.hpa, result.kind))
        return AtcTranslation(
            result.hpa + (da - page),
            result.kind,
            calibration.ATC_HIT_SECONDS + result.latency,
            False,
            result.iotlb_hit,
        )

    def invalidate_range(self, da, length):
        """Handle an ATS invalidation from the IOMMU (on unmap)."""
        self.cache.invalidate_domain(
            self.domain_name, align_down(da, self.page_size), da + length
        )

    def reset_counters(self):
        self.cache.reset_counters()

    def __repr__(self):
        return "DeviceAtc(domain=%r, %r)" % (self.domain_name, self.cache)

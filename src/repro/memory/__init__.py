"""Memory-translation substrate: address spaces, page tables, MMU/EPT,
IOMMU with IOTLB and ATS, and pinning with the paper's timing model.

This package models Figure 1(a) of the Stellar paper — the full
GVA -> GPA -> HVA -> HPA chain plus the device-side DA -> HPA path — and is
the foundation for PVDMA (Section 5) and eMTT (Section 6).
"""

from repro.memory.address import (
    AddressError,
    AddressSpace,
    MemoryKind,
    MemoryRegion,
    MisalignedAddressError,
    PhysicalMemoryMap,
    align_down,
    align_up,
    page_count,
    page_span,
)
from repro.memory.caches import TranslationCache
from repro.memory.iommu import AtsResult, Iommu, IommuDomain, IommuMode
from repro.memory.mmu import MMU
from repro.memory.page_table import PageFault, PageTable, PageTableEntry
from repro.memory.pinning import PinError, PinManager, full_pin_seconds
from repro.memory.range_table import Interval, RangeMap

__all__ = [
    "AddressError",
    "AddressSpace",
    "MemoryKind",
    "MemoryRegion",
    "MisalignedAddressError",
    "PhysicalMemoryMap",
    "align_down",
    "align_up",
    "page_count",
    "page_span",
    "TranslationCache",
    "AtsResult",
    "Iommu",
    "IommuDomain",
    "IommuMode",
    "MMU",
    "PageFault",
    "PageTable",
    "PageTableEntry",
    "PinError",
    "PinManager",
    "full_pin_seconds",
    "Interval",
    "RangeMap",
]

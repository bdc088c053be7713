"""Address spaces, memory regions, and page math.

The Stellar paper's memory-mapping hierarchy (Figure 1a) involves five
address spaces: guest virtual (GVA), guest physical (GPA), host virtual
(HVA), host physical (HPA), and device addresses (DA, also called IOVA).
We model addresses as plain integers tagged by the :class:`AddressSpace`
of the region that contains them, which keeps translation chains explicit
without the overhead of wrapper objects on every access.
"""

import enum


class AddressSpace(enum.Enum):
    """The five address spaces of the virtualized memory hierarchy."""

    GVA = "gva"  #: guest virtual address (application inside RunD)
    GPA = "gpa"  #: guest physical address (what the guest kernel sees)
    HVA = "hva"  #: host virtual address (hypervisor process view of GPA)
    HPA = "hpa"  #: host physical address (true DRAM / BAR addresses)
    DA = "da"    #: device address / IOVA (what a PCIe device emits pre-IOMMU)


class MemoryKind(enum.Enum):
    """Who owns the physical backing of a region.

    The eMTT (Section 6) stores exactly this distinction so the RNIC can
    route GPU-owned pages via PCIe P2P and host pages via the root complex.
    """

    HOST_DRAM = "host_dram"
    GPU_HBM = "gpu_hbm"
    DEVICE_MMIO = "device_mmio"  #: BAR-mapped device registers (e.g. doorbells)


class AddressError(Exception):
    """Base class for address/translation failures."""


class MisalignedAddressError(AddressError):
    """An operation required page alignment and the address lacked it."""


def check_alignment(value, alignment, what="address"):
    """Raise :class:`MisalignedAddressError` unless ``value`` is aligned."""
    if value % alignment != 0:
        raise MisalignedAddressError(
            "%s 0x%x is not aligned to 0x%x" % (what, value, alignment)
        )


def align_down(value, alignment):
    """Largest multiple of ``alignment`` that is <= ``value``."""
    return value - (value % alignment)


def align_up(value, alignment):
    """Smallest multiple of ``alignment`` that is >= ``value``."""
    remainder = value % alignment
    return value if remainder == 0 else value + alignment - remainder


def page_span(start, length, page_size):
    """Iterate the page-aligned base addresses covering [start, start+length)."""
    if length <= 0:
        return
    first = align_down(start, page_size)
    last = align_down(start + length - 1, page_size)
    base = first
    while base <= last:
        yield base
        base += page_size


def page_count(start, length, page_size):
    """Number of pages touched by a byte range."""
    if length <= 0:
        return 0
    first = align_down(start, page_size)
    last = align_down(start + length - 1, page_size)
    return (last - first) // page_size + 1


class MemoryRegion:
    """A contiguous byte range in one address space.

    Regions are half-open intervals ``[start, start + length)`` and carry
    the :class:`MemoryKind` of their backing when known (physical-space
    regions), which the eMTT consumes.
    """

    __slots__ = ("start", "length", "space", "kind")

    def __init__(self, start, length, space, kind=None):
        if start < 0:
            raise AddressError("region start must be non-negative: %r" % start)
        if length <= 0:
            raise AddressError("region length must be positive: %r" % length)
        self.start = int(start)
        self.length = int(length)
        self.space = space
        self.kind = kind

    @property
    def end(self):
        """One past the last byte of the region."""
        return self.start + self.length

    def contains(self, address, length=1):
        """True if ``[address, address+length)`` lies entirely inside."""
        return self.start <= address and address + length <= self.end

    def overlaps(self, other):
        """True if this region shares at least one byte with ``other``."""
        return self.start < other.end and other.start < self.end

    def offset_of(self, address):
        """Byte offset of ``address`` from the region start."""
        if not self.contains(address):
            raise AddressError(
                "address 0x%x outside region [0x%x, 0x%x)"
                % (address, self.start, self.end)
            )
        return address - self.start

    def subregion(self, offset, length):
        """A child region at ``offset`` with the same space and kind."""
        if offset < 0 or offset + length > self.length:
            raise AddressError(
                "subregion [%d, %d) exceeds region length %d"
                % (offset, offset + length, self.length)
            )
        return MemoryRegion(self.start + offset, length, self.space, self.kind)

    def __eq__(self, other):
        if not isinstance(other, MemoryRegion):
            return NotImplemented
        return (
            self.start == other.start
            and self.length == other.length
            and self.space == other.space
            and self.kind == other.kind
        )

    def __hash__(self):
        return hash((self.start, self.length, self.space, self.kind))

    def __repr__(self):
        kind = ", kind=%s" % self.kind.value if self.kind else ""
        return "MemoryRegion(0x%x..0x%x, %s%s)" % (
            self.start,
            self.end,
            self.space.value,
            kind,
        )


class PhysicalMemoryMap:
    """Allocator for a physical address space (HPA or GPA).

    Hands out non-overlapping regions bump-allocator style; supports
    reserving fixed windows (e.g. BAR apertures) and freeing for reuse.
    The map intentionally does not model byte contents — the simulators
    care about *addresses and ownership*, not data.
    """

    def __init__(self, space, size, base=0):
        self.space = space
        self.base = int(base)
        self.size = int(size)
        self._cursor = self.base
        self._regions = []
        self._free = []  # recycled (start, length) holes

    @property
    def end(self):
        return self.base + self.size

    def allocate(self, length, kind, alignment=1):
        """Allocate a region of ``length`` bytes with the given backing kind."""
        if length <= 0:
            raise AddressError("allocation length must be positive: %r" % length)
        for i, (hole_start, hole_len) in enumerate(self._free):
            start = align_up(hole_start, alignment)
            if start + length <= hole_start + hole_len:
                del self._free[i]
                leading = start - hole_start
                trailing = (hole_start + hole_len) - (start + length)
                if leading:
                    self._free.append((hole_start, leading))
                if trailing:
                    self._free.append((start + length, trailing))
                region = MemoryRegion(start, length, self.space, kind)
                self._regions.append(region)
                return region
        start = align_up(self._cursor, alignment)
        if start + length > self.end:
            raise AddressError(
                "out of %s space: need %d bytes at 0x%x, map ends at 0x%x"
                % (self.space.value, length, start, self.end)
            )
        self._cursor = start + length
        region = MemoryRegion(start, length, self.space, kind)
        self._regions.append(region)
        return region

    def reserve(self, start, length, kind):
        """Claim a fixed window (e.g. a BAR aperture placed by firmware)."""
        region = MemoryRegion(start, length, self.space, kind)
        for existing in self._regions:
            if existing.overlaps(region):
                raise AddressError(
                    "reservation %r overlaps existing %r" % (region, existing)
                )
        if region.end > self._cursor:
            self._cursor = region.end
        self._regions.append(region)
        return region

    def free(self, region):
        """Release a previously allocated/reserved region for reuse."""
        try:
            self._regions.remove(region)
        except ValueError:
            raise AddressError("region %r was not allocated from this map" % region)
        self._free.append((region.start, region.length))

    def region_at(self, address):
        """The region containing ``address``, or ``None``."""
        for region in self._regions:
            if region.contains(address):
                return region
        return None

    def __repr__(self):
        return "PhysicalMemoryMap(%s, %d regions, %d bytes used)" % (
            self.space.value,
            len(self._regions),
            sum(region.length for region in self._regions),
        )

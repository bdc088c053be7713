"""Generic page tables with permissions.

One class serves every translation layer in Figure 1a: guest page tables
(GVA->GPA), host page tables (HVA->HPA), the EPT (GPA->HPA), and IOMMU
domain tables (DA->HPA).  The table maps page-aligned frames and carries
the :class:`~repro.memory.address.MemoryKind` of the target frame so
ownership survives the whole translation chain down to the eMTT.
"""

from repro.memory.address import (
    AddressError,
    align_down,
    check_alignment,
    page_span,
)


class PageFault(AddressError):
    """Raised when a translation has no mapping or lacks permissions."""

    def __init__(self, address, space=None, reason="not mapped"):
        self.address = address
        self.space = space
        self.reason = reason
        where = " in %s" % space.value if space is not None else ""
        super().__init__("page fault at 0x%x%s: %s" % (address, where, reason))


class PageTableEntry:
    """A single page mapping: target frame, permissions, backing kind."""

    __slots__ = ("target", "writable", "kind")

    def __init__(self, target, writable, kind):
        self.target = target
        self.writable = writable
        self.kind = kind

    def __repr__(self):
        perm = "rw" if self.writable else "ro"
        kind = self.kind.value if self.kind else "?"
        return "PTE(->0x%x, %s, %s)" % (self.target, perm, kind)


class PageTable:
    """Single-level functional page table over fixed-size pages.

    Real hardware uses radix trees; the lookup semantics are identical and
    only the walk cost differs, which our timing models charge separately.
    """

    def __init__(self, page_size, source_space=None, target_space=None):
        if page_size <= 0 or page_size & (page_size - 1):
            raise AddressError("page size must be a power of two: %r" % page_size)
        self.page_size = page_size
        self.source_space = source_space
        self.target_space = target_space
        self._entries = {}

    def __len__(self):
        return len(self._entries)

    def map_page(self, source, target, writable=True, kind=None, overwrite=False):
        """Install a single page mapping; both addresses must be aligned."""
        check_alignment(source, self.page_size, "source page")
        check_alignment(target, self.page_size, "target page")
        if not overwrite and source in self._entries:
            existing = self._entries[source]
            if existing.target != target:
                raise AddressError(
                    "remapping page 0x%x from 0x%x to 0x%x without overwrite"
                    % (source, existing.target, target)
                )
        self._entries[source] = PageTableEntry(target, writable, kind)

    def map_range(self, source, target, length, writable=True, kind=None,
                  overwrite=False):
        """Map a contiguous byte range page by page (both sides contiguous)."""
        check_alignment(source, self.page_size, "source range")
        check_alignment(target, self.page_size, "target range")
        offset = 0
        while offset < length:
            self.map_page(
                source + offset,
                target + offset,
                writable=writable,
                kind=kind,
                overwrite=overwrite,
            )
            offset += self.page_size

    def unmap_page(self, source):
        check_alignment(source, self.page_size, "source page")
        if source not in self._entries:
            raise PageFault(source, self.source_space, "unmap of unmapped page")
        del self._entries[source]

    def unmap_range(self, source, length):
        for page in page_span(source, length, self.page_size):
            self.unmap_page(page)

    def entry(self, address):
        """The entry covering ``address``, or ``None``."""
        return self._entries.get(align_down(address, self.page_size))

    def translate(self, address, write=False):
        """Translate one address; raises :class:`PageFault` on a miss."""
        page = align_down(address, self.page_size)
        entry = self._entries.get(page)
        if entry is None:
            raise PageFault(address, self.source_space)
        if write and not entry.writable:
            raise PageFault(address, self.source_space, "write to read-only page")
        return entry.target + (address - page)

    def translate_region(self, start, length, write=False):
        """Translate a byte range into a list of (source, target, length)
        physically-contiguous chunks.

        DMA engines need contiguous target extents; this coalesces adjacent
        pages whose frames happen to be contiguous.
        """
        if length <= 0:
            raise AddressError("length must be positive: %r" % length)
        chunks = []
        cursor = start
        remaining = length
        while remaining > 0:
            page = align_down(cursor, self.page_size)
            in_page = min(remaining, page + self.page_size - cursor)
            target = self.translate(cursor, write=write)
            if chunks and chunks[-1][1] + chunks[-1][2] == target:
                src, tgt, ln = chunks[-1]
                chunks[-1] = (src, tgt, ln + in_page)
            else:
                chunks.append((cursor, target, in_page))
            cursor += in_page
            remaining -= in_page
        return chunks

    def __repr__(self):
        spaces = ""
        if self.source_space and self.target_space:
            spaces = ", %s->%s" % (self.source_space.value, self.target_space.value)
        return "PageTable(page=%d, entries=%d%s)" % (
            self.page_size,
            len(self._entries),
            spaces,
        )

"""Interval-based translation maps.

The EPT and IOMMU must hold mappings for terabyte-scale containers; a
per-page dict would need hundreds of millions of entries.  Real hardware
walks radix trees, but the *functional* semantics are those of an interval
map: contiguous source ranges translate to contiguous targets with an
owner kind and permissions.  :class:`RangeMap` provides exactly that with
O(log n) lookups via bisect.
"""

import bisect

from repro.memory.address import AddressError
from repro.memory.page_table import PageFault


class Interval:
    """One contiguous mapping: [src, src+length) -> [dst, dst+length)."""

    __slots__ = ("src", "dst", "length", "kind", "writable")

    def __init__(self, src, dst, length, kind=None, writable=True):
        if length <= 0:
            raise AddressError("interval length must be positive: %r" % length)
        self.src = src
        self.dst = dst
        self.length = length
        self.kind = kind
        self.writable = writable

    @property
    def src_end(self):
        return self.src + self.length

    def contains(self, address):
        return self.src <= address < self.src_end

    def translate(self, address):
        return self.dst + (address - self.src)

    def split_off_head(self, at):
        """Trim this interval to start at ``at``; returns the removed head."""
        head_len = at - self.src
        head = Interval(self.src, self.dst, head_len, self.kind, self.writable)
        self.dst += head_len
        self.src = at
        self.length -= head_len
        return head

    def __repr__(self):
        kind = self.kind.value if self.kind else "?"
        return "Interval(0x%x..0x%x -> 0x%x, %s)" % (
            self.src,
            self.src_end,
            self.dst,
            kind,
        )


class RangeMap:
    """Sorted, non-overlapping interval map with page-table semantics."""

    def __init__(self, source_space=None, target_space=None):
        self.source_space = source_space
        self.target_space = target_space
        self._starts = []  # sorted src addresses
        self._intervals = []  # parallel list of Interval

    def __len__(self):
        return len(self._intervals)

    @property
    def mapped_bytes(self):
        return sum(interval.length for interval in self._intervals)

    def _index_for(self, address):
        """Index of the interval containing ``address``, or ``None``."""
        i = bisect.bisect_right(self._starts, address) - 1
        if i >= 0 and self._intervals[i].contains(address):
            return i
        return None

    def lookup(self, address):
        """The :class:`Interval` covering ``address``, or ``None``."""
        i = self._index_for(address)
        return self._intervals[i] if i is not None else None

    def lookup_many(self, addresses):
        """The covering :class:`Interval` (or ``None``) of each address.

        Equal to ``[self.lookup(a) for a in addresses]``; consecutive
        addresses inside one interval (a working set's page sample)
        reuse it instead of bisecting again.
        """
        starts = self._starts
        intervals = self._intervals
        bisect_right = bisect.bisect_right
        found = []
        interval = None
        lo = hi = 0  # [lo, hi) of the last interval found; empty at first
        for address in addresses:
            if not lo <= address < hi:
                i = bisect_right(starts, address) - 1
                interval = intervals[i] if i >= 0 else None
                if interval is not None and interval.contains(address):
                    lo = interval.src
                    hi = lo + interval.length
                else:
                    interval = None
                    lo = hi = 0
            found.append(interval)
        return found

    def is_mapped(self, address):
        return self._index_for(address) is not None

    def overlaps(self, src, length):
        """True if any byte of [src, src+length) is already mapped."""
        if length <= 0:
            return False
        i = bisect.bisect_right(self._starts, src) - 1
        if i >= 0 and self._intervals[i].src_end > src:
            return True
        j = bisect.bisect_left(self._starts, src + length)
        return any(
            self._intervals[k].src < src + length for k in range(max(i + 1, 0), j)
        )

    def map_range(self, src, dst, length, kind=None, writable=True, overwrite=False):
        """Install a mapping; overlapping installs require ``overwrite``.

        With ``overwrite`` the covered portion of existing intervals is
        replaced (intervals are trimmed or split as needed).
        """
        if self.overlaps(src, length):
            existing = self.lookup(src)
            same = (
                existing is not None
                and existing.src == src
                and existing.length == length
                and existing.dst == dst
            )
            if not overwrite and not same:
                raise AddressError(
                    "mapping [0x%x, 0x%x) overlaps an existing interval"
                    % (src, src + length)
                )
            self.unmap_range(src, length, partial_ok=True)
        interval = Interval(src, dst, length, kind, writable)
        i = bisect.bisect_left(self._starts, src)
        self._starts.insert(i, src)
        self._intervals.insert(i, interval)
        return interval

    def unmap_range(self, src, length, partial_ok=False):
        """Remove mappings over [src, src+length).

        Intervals extending beyond the range are split; with
        ``partial_ok=False`` the range must be fully mapped.
        """
        if length <= 0:
            raise AddressError("unmap length must be positive: %r" % length)
        end = src + length
        removed_bytes = 0
        # Split an interval straddling the left edge.
        i = self._index_for(src)
        if i is not None and self._intervals[i].src < src:
            head = self._intervals[i].split_off_head(src)
            self._starts[i] = src  # trimmed interval now starts at src
            self._intervals.insert(i, head)
            self._starts.insert(i, head.src)
        # Split an interval straddling the right edge.
        j = self._index_for(end - 1)
        if j is not None and self._intervals[j].src_end > end:
            tail_owner = self._intervals[j]
            if tail_owner.src < end:
                tail = Interval(
                    end,
                    tail_owner.translate(end),
                    tail_owner.src_end - end,
                    tail_owner.kind,
                    tail_owner.writable,
                )
                tail_owner.length = end - tail_owner.src
                self._starts.insert(j + 1, tail.src)
                self._intervals.insert(j + 1, tail)
        # Remove everything fully inside [src, end).
        lo = bisect.bisect_left(self._starts, src)
        hi = bisect.bisect_left(self._starts, end)
        for k in range(lo, hi):
            removed_bytes += self._intervals[k].length
        del self._starts[lo:hi]
        del self._intervals[lo:hi]
        if not partial_ok and removed_bytes != length:
            raise PageFault(
                src,
                self.source_space,
                "unmap of range with unmapped holes (%d of %d bytes mapped)"
                % (removed_bytes, length),
            )
        return removed_bytes

    def translate(self, address, write=False):
        interval = self.lookup(address)
        if interval is None:
            raise PageFault(address, self.source_space)
        if write and not interval.writable:
            raise PageFault(address, self.source_space, "write to read-only mapping")
        return interval.translate(address)

    def translate_region(self, start, length, write=False):
        """Translate a byte range to (src, dst, length) contiguous chunks."""
        if length <= 0:
            raise AddressError("length must be positive: %r" % length)
        chunks = []
        cursor = start
        end = start + length
        while cursor < end:
            interval = self.lookup(cursor)
            if interval is None:
                raise PageFault(cursor, self.source_space)
            if write and not interval.writable:
                raise PageFault(cursor, self.source_space, "write to read-only mapping")
            take = min(end, interval.src_end) - cursor
            dst = interval.translate(cursor)
            if chunks and chunks[-1][1] + chunks[-1][2] == dst:
                prev_src, prev_dst, prev_len = chunks[-1]
                chunks[-1] = (prev_src, prev_dst, prev_len + take)
            else:
                chunks.append((cursor, dst, take))
            cursor += take
        return chunks

    def intervals(self):
        """All intervals in source order (copy-safe)."""
        return list(self._intervals)

    def __repr__(self):
        return "RangeMap(%d intervals, %d bytes)" % (len(self), self.mapped_bytes)

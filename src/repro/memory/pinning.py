"""Memory pinning with the paper's timing model.

VFIO-style passthrough requires the hypervisor to pin *all* guest memory
before any RDMA can run (Section 3.1 problem 2): "Pinning a container with
1.6 TB of memory typically takes 390 seconds."  PVDMA (Section 5) instead
pins 2 MiB blocks on demand.  Both paths go through :class:`PinManager`,
which charges time per pinned byte and tracks refcounts per block so
overlapping registrations unpin correctly.
"""

from repro import calibration
from repro.memory.address import AddressError, align_down


class PinError(AddressError):
    """Raised on invalid pin/unpin sequences."""


class PinManager:
    """Tracks pinned physical blocks and accounts pinning time.

    Granularity is configurable: full-pin VFIO uses the same machinery with
    huge ranges; PVDMA uses 2 MiB blocks.  Pin cost model::

        cost = new_blocks * block_bytes * calibration.PIN_SECONDS_PER_BYTE

    Already-pinned blocks only bump a refcount and cost nothing, which is
    what makes PVDMA's Map Cache effective.
    """

    def __init__(self, block_size=calibration.PVDMA_BLOCK_BYTES):
        if block_size <= 0 or block_size & (block_size - 1):
            raise PinError("block size must be a power of two: %r" % block_size)
        self.block_size = block_size
        self._refcounts = {}  # block base -> refcount
        self.total_pin_seconds = 0.0
        self.pin_calls = 0
        self.unpin_calls = 0

    def _blocks(self, start, length):
        if length <= 0:
            raise PinError("pin length must be positive: %r" % length)
        first = align_down(start, self.block_size)
        last = align_down(start + length - 1, self.block_size)
        return range(first, last + self.block_size, self.block_size)

    def pin(self, start, length):
        """Pin a byte range; returns the simulated seconds the pin cost."""
        new_blocks = 0
        for block in self._blocks(start, length):
            count = self._refcounts.get(block, 0)
            if count == 0:
                new_blocks += 1
            self._refcounts[block] = count + 1
        self.pin_calls += 1
        cost = new_blocks * (self.block_size * calibration.PIN_SECONDS_PER_BYTE)
        self.total_pin_seconds += cost
        return cost

    def unpin(self, start, length):
        """Release a previously pinned range (refcounted per block)."""
        for block in self._blocks(start, length):
            count = self._refcounts.get(block, 0)
            if count <= 0:
                raise PinError("unpin of unpinned block 0x%x" % block)
            if count == 1:
                del self._refcounts[block]
            else:
                self._refcounts[block] = count - 1
        self.unpin_calls += 1

    def is_pinned(self, address):
        """True if the block containing ``address`` is currently pinned."""
        return self._refcounts.get(align_down(address, self.block_size), 0) > 0

    def range_pinned(self, start, length):
        """True only if *every* block of the range is pinned."""
        return all(self._refcounts.get(b, 0) > 0 for b in self._blocks(start, length))

    @property
    def pinned_blocks(self):
        return len(self._refcounts)

    @property
    def pinned_bytes(self):
        return len(self._refcounts) * self.block_size

    def __repr__(self):
        return "PinManager(block=%d, pinned=%d blocks, %.2fs spent)" % (
            self.block_size,
            self.pinned_blocks,
            self.total_pin_seconds,
        )


def full_pin_seconds(memory_bytes):
    """Time to pin an entire container up front (the VFIO path of Figure 6)."""
    if memory_bytes < 0:
        raise PinError("memory size must be non-negative: %r" % memory_bytes)
    return memory_bytes * calibration.PIN_SECONDS_PER_BYTE

"""PVDMA: Para-Virtualized Direct Memory Access (Section 5).

Instead of pinning all guest memory at boot, PVDMA intercepts the first
DMA touching each 2 MiB guest-physical block, registers the block in the
IOMMU (pinning its host backing), and caches the registration in a Map
Cache so subsequent DMAs are free.  Blocks are refcounted: a block stays
mapped while any consumer (an RDMA MR, a GPU command queue) still uses it
— which is exactly the retention that enables the Figure 5 doorbell
hazard, also modelled here together with its virtio-shm fix.
"""

from repro import calibration
from repro.memory.address import MemoryKind, align_down
from repro.virt.hypervisor import HypervisorError


class PvdmaError(HypervisorError):
    """Invalid PVDMA operation."""


class MapCacheStats:
    """Hit/miss accounting for one container's Map Cache."""

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def __repr__(self):
        return "MapCacheStats(hits=%d, misses=%d)" % (self.hits, self.misses)


class PvdmaEngine:
    """On-demand IOMMU registration for one hypervisor's containers."""

    def __init__(self, hypervisor, block_size=calibration.PVDMA_BLOCK_BYTES):
        if block_size <= 0 or block_size & (block_size - 1):
            raise PvdmaError("PVDMA block size must be a power of two")
        self.hypervisor = hypervisor
        self.block_size = block_size
        # container name -> {block gpa -> refcount}
        self._map_cache = {}
        self._stats = {}
        self.total_pin_seconds = 0.0

    def stats(self, container):
        return self._stats.setdefault(container.name, MapCacheStats())

    def cached_blocks(self, container):
        return dict(self._map_cache.get(container.name, {}))

    # -- telemetry --------------------------------------------------------

    def snapshot(self):
        """Public Map-Cache counter snapshot across every known container."""
        containers = {}
        for name, stats in self._stats.items():
            blocks = len(self._map_cache.get(name, {}))
            containers[name] = {
                "map_cache_blocks": blocks,
                "hits": stats.hits,
                "misses": stats.misses,
                "pinned_bytes": blocks * self.block_size,
            }
        return {
            "block_size": self.block_size,
            "total_pin_seconds": self.total_pin_seconds,
            "containers": containers,
        }

    def register_metrics(self, registry, prefix="pvdma"):
        """Expose Map-Cache economics under ``pvdma.*``."""
        registry.add_provider(prefix, self.snapshot)
        return registry

    def _blocks(self, gpa, length):
        if length <= 0:
            raise PvdmaError("DMA length must be positive: %r" % length)
        first = align_down(gpa, self.block_size)
        last = align_down(gpa + length - 1, self.block_size)
        return range(first, last + self.block_size, self.block_size)

    def _map_block(self, container, block_gpa):
        """Register one 2 MiB block in the IOMMU from the EPT's current view.

        The block may be backed by multiple EPT intervals (RAM plus a
        direct-mapped device register, as in Figure 5c) — each sub-interval
        is mapped as-is, which is faithful to the hazard: PVDMA copies
        whatever the EPT says, including a doorbell page.
        """
        iommu = self.hypervisor.iommu
        ept = self.hypervisor.mmu.ept(container.name)
        cost = 0.0
        cursor = block_gpa
        end = block_gpa + self.block_size
        while cursor < end:
            interval = ept.lookup(cursor)
            if interval is None:
                # Unbacked GPA (hole): skip the gap.
                cursor = self._next_mapped(ept, cursor, end)
                continue
            take = min(end, interval.src_end) - cursor
            cost += iommu.map(
                container.domain_name,
                cursor,
                interval.translate(cursor),
                take,
                kind=interval.kind,
                pin=True,
            )
            cursor += take
        return cost

    @staticmethod
    def _next_mapped(table, cursor, end):
        """First address in (cursor, end) that ``table`` (an EPT or an
        IOMMU domain's RangeMap) maps, or end."""
        for interval in table.intervals():
            if interval.src > cursor:
                return min(interval.src, end)
        return end

    def dma_prepare(self, container, gpa, length):
        """Stage 1+2 of Figure 4: intercept a DMA, pin missing blocks.

        Returns the simulated seconds spent (zero on full Map Cache hits).
        Blocks already present only gain a reference — *even if the EPT
        has changed underneath them*, which is the Figure 5 step-5 flaw.
        """
        if container.memory_mode.value != "pvdma":
            raise PvdmaError(
                "container %r is not in PVDMA memory mode" % container.name
            )
        cache = self._map_cache.setdefault(container.name, {})
        stats = self.stats(container)
        cost = 0.0
        for block in self._blocks(gpa, length):
            if block in cache:
                stats.hits += 1
                cache[block] += 1
                continue
            stats.misses += 1
            cost += self._map_block(container, block)
            cache[block] = 1
        self.total_pin_seconds += cost
        return cost

    def dma_release(self, container, gpa, length):
        """Drop one reference per block; unmap blocks nobody uses.

        A block with remaining references is deliberately retained —
        including any stale device-register mapping inside it (Figure 5d).
        """
        cache = self._map_cache.get(container.name, {})
        iommu = self.hypervisor.iommu
        for block in self._blocks(gpa, length):
            if block not in cache:
                raise PvdmaError(
                    "release of unprepared block 0x%x in %r" % (block, container.name)
                )
            cache[block] -= 1
            if cache[block] == 0:
                del cache[block]
                self._unmap_block(container, block, iommu)

    def _unmap_block(self, container, block_gpa, iommu):
        """Unmap whatever portions of the block the IOMMU currently holds."""
        domain = iommu.domain(container.domain_name)
        cursor = block_gpa
        end = block_gpa + self.block_size
        while cursor < end:
            interval = domain.table.lookup(cursor)
            if interval is None:
                cursor = self._next_mapped(domain.table, cursor, end)
                continue
            take = min(end, interval.src_end) - cursor
            iommu.unmap(container.domain_name, cursor, take)
            cursor += take

    def forget_container(self, container):
        """Tear down every PVDMA mapping a container still holds.

        Container stop (graceful or abnormal) must not leave pinned
        blocks or Map-Cache state behind: a later container reusing the
        name would inherit stale registrations — the fleet-churn variant
        of the Figure 5 hazard.  Blocks are unmapped while the IOMMU
        domain still exists; call this *before* ``container.shutdown()``.

        Returns the number of blocks that were still cached.
        """
        cache = self._map_cache.pop(container.name, None)
        self._stats.pop(container.name, None)
        if not cache:
            return 0
        iommu = self.hypervisor.iommu
        if iommu.has_domain(container.domain_name):
            for block in sorted(cache):
                self._unmap_block(container, block, iommu)
        return len(cache)

    def device_dma(self, container, gpa, length=4096):
        """Model a device (e.g. GPU) DMA through the IOMMU.

        Returns ``(hpa, kind)`` as the IOMMU resolves them.  The *kind*
        tells callers whether the DMA landed in RAM or — the hazard — in a
        device register window.
        """
        result = self.hypervisor.iommu.rc_translate(container.domain_name, gpa)
        return result.hpa, result.kind


class HazardOutcome:
    """Result of running the Figure 5 scenario."""

    def __init__(self, corrupted, dma_hpa, dma_kind, expected_hpa):
        self.corrupted = corrupted
        self.dma_hpa = dma_hpa
        self.dma_kind = dma_kind
        self.expected_hpa = expected_hpa

    def __repr__(self):
        return "HazardOutcome(corrupted=%s, kind=%s)" % (
            self.corrupted,
            self.dma_kind.value if self.dma_kind else None,
        )


def run_doorbell_hazard_scenario(hypervisor, container, pvdma, rnic_db_hpa_region,
                                 use_shm_fix):
    """Execute the five steps of Figure 5 and report whether the GPU's
    final DMA lands on the RNIC doorbell (corruption) or in guest RAM.

    With ``use_shm_fix=True`` the doorbell lives in the virtio shm I/O
    space instead of guest-physical memory, so the 2 MiB PVDMA block that
    covers the command queue contains only RAM and the hazard vanishes
    (Figure 5f).
    """
    mmu = hypervisor.mmu
    block = pvdma.block_size  # 2 MiB
    # Choose a 2 MiB-aligned GPA block inside guest RAM; the vDB page is
    # its first 4 KiB page and the GPU command queue sits right after.
    block_gpa = 8 * block
    vdb_gpa = block_gpa
    cmdq_gpa = block_gpa + calibration.DOORBELL_PAGE_BYTES
    ram_backing_hpa = container.hpa_base + vdb_gpa

    # Step 1: the RDMA program maps the vDB.  Buggy layout: a direct map
    # inside guest RAM.  Fixed layout: a virtio shm region outside GPA.
    if not use_shm_fix:
        mmu.register_direct_map(
            container.name, vdb_gpa, rnic_db_hpa_region, overwrite=True
        )

    # Step 2: the GPU driver allocates its command queue next to the vDB.
    container.alloc_gpa_at(cmdq_gpa, calibration.DOORBELL_PAGE_BYTES)

    # Step 3: first GPU DMA on the command queue; PVDMA pins the whole
    # 2 MiB block — including the vDB page when it lives in GPA space.
    pvdma.dma_prepare(container, cmdq_gpa, calibration.DOORBELL_PAGE_BYTES)

    # Step 4: the RDMA program exits; the EPT releases the vDB and the OS
    # faults regular RAM back in.  The IOMMU block is retained because the
    # command queue still references it.
    if not use_shm_fix:
        mmu.unregister_direct_map(container.name, vdb_gpa)
        mmu.ept(container.name).map_range(
            vdb_gpa,
            ram_backing_hpa,
            calibration.DOORBELL_PAGE_BYTES,
            kind=MemoryKind.HOST_DRAM,
            overwrite=True,
        )

    # Step 5: the OS reuses the old vDB page for a new command queue; the
    # Map Cache says the block is already registered, so PVDMA does not
    # refresh the IOMMU.
    pvdma.dma_prepare(container, vdb_gpa, calibration.DOORBELL_PAGE_BYTES)

    # The GPU now DMAs the new command queue.
    dma_hpa, dma_kind = pvdma.device_dma(container, vdb_gpa)
    expected = mmu.translate(container.name, vdb_gpa)
    corrupted = dma_hpa != expected or dma_kind is MemoryKind.DEVICE_MMIO
    return HazardOutcome(corrupted, dma_hpa, dma_kind, expected)

"""A fleet host: a real Stellar server plus admission accounting.

:class:`FleetHost` owns an honest :class:`repro.core.StellarHost` (PCIe
fabric, RNICs, hypervisor with PVDMA, SF managers) so container churn
pays real boot/pinning/device costs, and layers the scheduler-facing
bookkeeping on top: finite GPUs, pinnable DRAM, scalable functions and
switch-LUT entries, reserved per job and released on teardown.

:class:`SharedAtc` is the multi-tenant variant of
:class:`repro.pcie.atc.DeviceAtc`: one bounded RNIC-side translation
cache shared by *all* tenant domains on the host, keyed by
``(domain, page)``.  Co-located tenants evict each other, which is how
the Figure 8/14 miss-rate growth appears at fleet scale.
"""

from repro import calibration
from repro.core.stellar import StellarHost
from repro.memory.caches import TranslationCache
from repro.sim.units import GiB
from repro.virt.hypervisor import MemoryMode


class FleetHostError(Exception):
    """Admission-accounting violation on a fleet host."""


class SharedAtc:
    """One host's RNIC ATC shared across every tenant IOMMU domain.

    Two kinds of touch skip the per-page lookup loop:

    - *Cold touch.*  When the cache holds no page of the domain (its
      first touch since launch) and the sample's pages are distinct,
      every lookup would miss and insert.  The ATC asks the IOMMU for
      all replies at once (:meth:`repro.memory.iommu.Iommu.ats_translate_many`,
      which also charges the IOTLB in one batch when it too is cold for
      the domain) and installs them with one
      :meth:`~repro.memory.caches.TranslationCache.insert_cold`.  The
      ATC and the IOTLB are disjoint state, so charging the IOTLB for
      the whole sample before the ATC reorders operations only across
      the two caches, never within one.  The one difference from the
      loop: if a page is unmapped, the :class:`PageFault` propagates
      before the ATC is charged for the pages ahead of it.
    - *Repeated touch.*  A training job touches the same page sample
      every block, and on a quiet host nothing else reaches the cache
      between two blocks.  After a touch in which every page hit, or a
      cold touch that fit in the cache, the sample's pages are the most
      recently used entries, in sample order, and the ATC remembers
      ``(sample, domain, cache generation)``.  When the next touch
      matches all three (the sample by identity, so callers pass
      immutable tuples), every page is still cached and re-looking them
      up in sample order would leave the LRU order as it is, so the
      lookups are skipped and only the hit counter and the per-hit
      seconds are charged.
    """

    def __init__(self, iommu, capacity_pages=calibration.ATC_CAPACITY_PAGES,
                 page_size=calibration.GDR_PAGE_BYTES):
        self.iommu = iommu
        self.page_size = page_size
        self.cache = TranslationCache(capacity_pages, name="shared-atc")
        self.translation_seconds = 0.0
        #: ``(sample, domain, generation)`` while the sample is the MRU
        #: end of the cache in sample order (see the class docstring).
        self._all_hit = None

    def access_many(self, domain_name, das):
        """Translate a page sample of device addresses; returns the hit count.

        Hits pay ``ATC_HIT_SECONDS``.  Misses pay the real ATS round trip
        against the host IOMMU (and a table walk past the IOTLB reach)
        and install the reply, evicting some other tenant's page when
        the cache is full.  Bound methods and a local accumulator keep
        the per-page cost low for fleet-scale iteration touching; a
        domain's cold first touch and a repeated touch skip the lookups
        (see the class docstring).
        """
        cache = self.cache
        hit_seconds = calibration.ATC_HIT_SECONDS
        translation_seconds = self.translation_seconds
        last = self._all_hit
        if (last is not None and last[0] is das and last[1] == domain_name
                and last[2] == cache.generation):
            count = len(das)
            cache.hits += count
            # One addition per page, in order: the float sum is the one
            # the lookup loop below would produce.
            for _ in range(count):
                translation_seconds += hit_seconds
            self.translation_seconds = translation_seconds
            return count
        page_size = self.page_size
        if not cache.holds_domain(domain_name):
            pages = [da - (da % page_size) for da in das]
            if len(set(pages)) == len(pages):
                values, latencies = self.iommu.ats_translate_many(
                    domain_name, pages
                )
                cache.insert_cold(domain_name, pages, values)
                # One addition per page, in sample order, as in the loop.
                for latency in latencies:
                    translation_seconds += hit_seconds + latency
                self.translation_seconds = translation_seconds
                # The sample is now the MRU end of the cache in sample
                # order, as after an all-hit touch, unless it outgrew it.
                if len(pages) <= cache.capacity:
                    self._all_hit = (das, domain_name, cache.generation)
                else:
                    self._all_hit = None
                return 0
        hits = 0
        lookup = cache.lookup
        insert = cache.insert
        ats_translate = self.iommu.ats_translate
        for da in das:
            key = (domain_name, da - (da % page_size))
            hit, _ = lookup(key)
            if hit:
                translation_seconds += hit_seconds
                hits += 1
            else:
                result = ats_translate(domain_name, key[1])
                insert(key, (result.hpa, result.kind))
                translation_seconds += hit_seconds + result.latency
        self.translation_seconds = translation_seconds
        if hits == len(das):
            self._all_hit = (das, domain_name, cache.generation)
        else:
            self._all_hit = None
        return hits

    def invalidate_domain(self, domain_name):
        """ATS invalidation when a tenant's container stops."""
        self.cache.invalidate_domain(domain_name)
        if self._all_hit is not None and self._all_hit[1] == domain_name:
            self._all_hit = None  # do not keep a stopped tenant's sample

    def snapshot(self):
        snap = {}
        for key, value in self.cache.snapshot().items():
            snap[key] = value
        snap["translation_seconds"] = self.translation_seconds
        return snap

    def __repr__(self):
        return "SharedAtc(%r)" % (self.cache,)


class FleetHost:
    """One schedulable server: real Stellar stack + resource ledger."""

    def __init__(
        self,
        name,
        address,
        gpus=calibration.SERVER_GPUS,
        rnics=calibration.SERVER_RNICS,
        dram_bytes=256 * GiB,
        gpu_hbm_bytes=8 * GiB,
        sf_capacity=None,
        atc_capacity=calibration.ATC_CAPACITY_PAGES,
    ):
        self.name = name
        #: :class:`repro.net.topology.ServerAddress` of this server on the
        #: shared dual-plane fabric.
        self.address = address
        # The physical DRAM window is built far larger than the admission
        # capacity: the fabric's host-buffer allocator is a bump cursor,
        # so a churning host allocates fresh guest RAM for every boot even
        # though stopped containers released their *accounted* bytes.
        self.host = StellarHost.build(
            host_memory_bytes=64 * dram_bytes,
            gpus=gpus,
            rnics=rnics,
            gpu_hbm_bytes=gpu_hbm_bytes,
        )
        self.gpu_capacity = len(self.host.gpus)
        self.dram_capacity = int(dram_bytes)
        self.sf_capacity = sf_capacity if sf_capacity is not None else rnics * 64
        self.lut_capacity = sum(
            switch.lut_capacity for switch in self.host.fabric.switches
        )
        #: LUT entries burnt at build time (one per Stellar RNIC parent
        #: function); legacy per-container VFs add to this.
        self.lut_base = sum(
            switch.snapshot()["lut_used"] for switch in self.host.fabric.switches
        )
        self.atc = SharedAtc(self.host.hypervisor.iommu, capacity_pages=atc_capacity)
        self._reservations = {}  # job name -> resource dict
        # Running totals over _reservations, kept by reserve/release so
        # placement reads each host's headroom without re-summing.
        self.gpus_reserved = 0
        self.dram_reserved = 0
        self.sfs_reserved = 0
        self.lut_used = self.lut_base
        self._rnic_cursor = 0

    # -- admission ledger --------------------------------------------------

    @property
    def gpus_free(self):
        return self.gpu_capacity - self.gpus_reserved

    @property
    def dram_free(self):
        return self.dram_capacity - self.dram_reserved

    @property
    def sfs_free(self):
        return self.sf_capacity - self.sfs_reserved

    @property
    def lut_free(self):
        return self.lut_capacity - self.lut_used

    def free_vector(self):
        """``[gpus, dram, sfs, lut]`` headroom, for placement arithmetic."""
        return [self.gpus_free, self.dram_free, self.sfs_free, self.lut_free]

    def can_fit(self, gpus, dram_bytes, sfs, lut_entries=0):
        return (
            gpus <= self.gpus_free
            and dram_bytes <= self.dram_free
            and sfs <= self.sfs_free
            and lut_entries <= self.lut_free
        )

    def reserve(self, job_name, gpus, dram_bytes, sfs, lut_entries=0):
        """Commit a job's share of this host; raises when over capacity."""
        if job_name in self._reservations:
            raise FleetHostError(
                "job %r already holds a reservation on %s" % (job_name, self.name)
            )
        if not self.can_fit(gpus, dram_bytes, sfs, lut_entries):
            raise FleetHostError(
                "host %s cannot fit job %r (free gpus=%d dram=%d sfs=%d lut=%d)"
                % (self.name, job_name, self.gpus_free, self.dram_free,
                   self.sfs_free, self.lut_free)
            )
        self._reservations[job_name] = {
            "gpus": gpus,
            "dram_bytes": int(dram_bytes),
            "sfs": sfs,
            "lut_entries": lut_entries,
        }
        self.gpus_reserved += gpus
        self.dram_reserved += int(dram_bytes)
        self.sfs_reserved += sfs
        self.lut_used += lut_entries

    def release(self, job_name):
        """Return a job's resources to the pool (idempotent)."""
        entry = self._reservations.pop(job_name, None)
        if entry is not None:
            self.gpus_reserved -= entry["gpus"]
            self.dram_reserved -= entry["dram_bytes"]
            self.sfs_reserved -= entry["sfs"]
            self.lut_used -= entry["lut_entries"]
        return entry

    # -- container lifecycle ----------------------------------------------

    @property
    def rnic_count(self):
        return len(self.host.rnics)

    def launch(self, name, memory_bytes, memory_mode=MemoryMode.PVDMA):
        """Boot a container, striping containers over the host's RNICs."""
        rnic_index = self._rnic_cursor % self.rnic_count
        self._rnic_cursor += 1
        return self.host.launch_container(
            name, memory_bytes, rnic_index=rnic_index, memory_mode=memory_mode
        )

    def prepare_working_set(self, container, region):
        """PVDMA-pin a guest buffer; returns the simulated seconds spent."""
        return self.host.dma_prepare(container, region)

    def stop(self, container, abnormal=False):
        """Stop a container, shooting down its shared-ATC entries first."""
        self.atc.invalidate_domain(container.domain_name)
        return self.host.stop_container(container, abnormal=abnormal)

    def touch(self, container, pages):
        """One iteration's worth of device accesses to a working set."""
        return self.atc.access_many(container.domain_name, pages)

    # -- telemetry ---------------------------------------------------------

    def snapshot(self):
        return {
            "gpus_used": self.gpus_reserved,
            "gpus_capacity": self.gpu_capacity,
            "dram_used": self.dram_reserved,
            "dram_capacity": self.dram_capacity,
            "sfs_used": self.sfs_reserved,
            "sfs_capacity": self.sf_capacity,
            "lut_used": self.lut_used,
            "lut_capacity": self.lut_capacity,
            "jobs": len(self._reservations),
            "containers": len(self.host.hypervisor.containers),
            "pvdma_pin_seconds": self.host.pvdma.total_pin_seconds,
            "atc": self.atc.snapshot(),
        }

    def register_metrics(self, registry, prefix=None):
        if prefix is None:
            prefix = "cluster.host.%s" % self.name
        registry.add_provider(prefix, self.snapshot)
        return registry

    def __repr__(self):
        return "FleetHost(%r, %s, gpus %d/%d, jobs=%d)" % (
            self.name, self.address, self.gpus_reserved, self.gpu_capacity,
            len(self._reservations),
        )

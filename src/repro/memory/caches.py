"""LRU translation caches.

Both the IOMMU's IOTLB and the RNIC-side PCIe Address Translation Cache
(ATC) are capacity-bounded caches over page translations.  Figure 8 of the
paper is entirely a story about these two caches thrashing, so the model
tracks hits, misses, and evictions precisely.

The store is a :class:`collections.OrderedDict`: ``move_to_end`` and
``popitem(last=False)`` are C-implemented and stay O(1) under the heavy
eviction churn of the cyclic Figure 8 access pattern (a plain dict's
``next(iter(...))`` degrades by scanning tombstones).

Every method that can change the cache's contents or LRU order bumps
:attr:`TranslationCache.generation`, so a caller that remembers the
generation after an all-hit pass can tell that nothing has moved since
(see :class:`repro.cluster.host.SharedAtc`).
"""

import collections


class TranslationCache:
    """A bounded LRU cache mapping page keys to translation results.

    ``generation`` counts the calls that may have changed the contents
    or the LRU order (``lookup``, ``insert``, ``invalidate``,
    ``invalidate_where``, ``clear``).  If it reads the same at two
    points, no such call ran in between, so the entries and their LRU
    order are the same at both; the counters (``hits``, ``misses``, ...)
    are not part of that state.
    """

    def __init__(self, capacity, name="cache"):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive: %r" % capacity)
        self.capacity = int(capacity)
        self.name = name
        self._entries = collections.OrderedDict()  # LRU order, oldest first
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.generation = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def lookup(self, key):
        """Return ``(hit, value)``; a hit refreshes recency."""
        self.generation += 1
        value = self._entries.get(key)
        if value is not None or key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True, value
        self.misses += 1
        return False, None

    def peek(self, key):
        """Non-counting, non-refreshing lookup (for assertions/tests)."""
        return self._entries.get(key)

    def insert(self, key, value):
        """Insert a translation, evicting the LRU entry if at capacity."""
        self.generation += 1
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = value

    def invalidate(self, key):
        """Drop one entry (e.g. on IOMMU unmap); no-op if absent."""
        self.generation += 1
        if self._entries.pop(key, None) is not None:
            self.invalidations += 1

    def invalidate_where(self, predicate):
        """Drop all entries whose key satisfies ``predicate``."""
        self.generation += 1
        doomed = [key for key in self._entries if predicate(key)]
        for key in doomed:
            del self._entries[key]
        self.invalidations += len(doomed)
        return len(doomed)

    def clear(self):
        self.generation += 1
        self.invalidations += len(self._entries)
        self._entries.clear()

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self):
        return self.misses / self.accesses if self.accesses else 0.0

    def snapshot(self):
        """Public counter snapshot (what the metrics registry exports)."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def reset_counters(self):
        """Zero the statistics without disturbing cache contents.

        Used to measure steady-state miss rates after a warm-up pass.
        """
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __repr__(self):
        return "%s(size=%d/%d, hit_rate=%.3f)" % (
            self.name,
            len(self._entries),
            self.capacity,
            self.hit_rate,
        )

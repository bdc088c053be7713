"""LRU translation caches.

Both the IOMMU's IOTLB and the RNIC-side PCIe Address Translation Cache
(ATC) are capacity-bounded caches over page translations.  Figure 8 of the
paper is entirely a story about these two caches thrashing, so the model
tracks hits, misses, and evictions precisely.

Every key is a ``(domain, page)`` pair: the IOTLB and the fleet's
shared ATC hold many tenant domains, and a device's own ATC keys by its
one domain.  The store is a :class:`collections.OrderedDict`:
``move_to_end`` and ``popitem(last=False)`` are C-implemented and stay
O(1) under the heavy eviction churn of the cyclic Figure 8 access
pattern (a plain dict's ``next(iter(...))`` degrades by scanning
tombstones).  Beside it the cache keeps a per-domain key index, so a
tenant's teardown (:meth:`TranslationCache.invalidate_domain`) visits
only that tenant's keys, and a tenant's first touch can be charged in
one batch (:meth:`TranslationCache.insert_cold`).

Every method that can change the cache's contents or LRU order bumps
:attr:`TranslationCache.generation`, so a caller that remembers the
generation after an all-hit pass can tell that nothing has moved since
(see :class:`repro.cluster.host.SharedAtc`).
"""

import collections


class TranslationCache:
    """A bounded LRU cache mapping ``(domain, page)`` keys to translations.

    ``_by_domain`` indexes the keys by domain: ``{domain: set(keys)}``,
    updated on every insert, LRU eviction, invalidation and clear, with
    a domain's entry deleted when its last key leaves.  It never
    affects the LRU order, which lives in the ``OrderedDict`` alone.

    ``generation`` counts the calls that may have changed the contents
    or the LRU order (``lookup``, ``insert``, ``insert_cold``,
    ``invalidate``, ``invalidate_domain``, ``clear``).  If it reads the
    same at two points, no such call ran in between, so the entries and
    their LRU order are the same at both; the counters (``hits``,
    ``misses``, ...) are not part of that state.
    """

    def __init__(self, capacity, name="cache"):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive: %r" % capacity)
        self.capacity = int(capacity)
        self.name = name
        self._entries = collections.OrderedDict()  # LRU order, oldest first
        self._by_domain = {}  # domain -> set of its keys in _entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.generation = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def holds_domain(self, domain):
        """True if any entry belongs to ``domain``."""
        return domain in self._by_domain

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
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        else:
            if len(entries) >= self.capacity:
                self._forget(entries.popitem(last=False)[0])
                self.evictions += 1
            keys = self._by_domain.get(key[0])
            if keys is None:
                self._by_domain[key[0]] = {key}
            else:
                keys.add(key)
        entries[key] = value

    def insert_cold(self, domain, pages, values):
        """Charge a first touch of ``domain``: a miss and an insert per page.

        The caller guarantees that the cache holds no key of ``domain``
        and that ``pages`` are distinct.  Then looking each page up (a
        miss) and inserting its value, in order, appends every key at
        the MRU end and evicts the oldest ``len - capacity`` entries,
        which is what this does in one pass.
        """
        self.generation += 1
        entries = self._entries
        keys = [(domain, page) for page in pages]
        self.misses += len(keys)
        entries.update(zip(keys, values))
        if keys:
            self._by_domain[domain] = set(keys)
        for _ in range(len(entries) - self.capacity):
            self._forget(entries.popitem(last=False)[0])
            self.evictions += 1

    def invalidate(self, key):
        """Drop one entry (e.g. on IOMMU unmap); no-op if absent."""
        self.generation += 1
        if key in self._entries:
            del self._entries[key]
            self._forget(key)
            self.invalidations += 1

    def invalidate_domain(self, domain, lo=None, hi=None):
        """Drop ``domain``'s entries, or only its pages in ``[lo, hi)``.

        Visits only the domain's own keys.  Deleting a subset of an
        ``OrderedDict`` leaves the survivors' LRU order as it was.
        Returns the number of entries dropped.
        """
        self.generation += 1
        keys = self._by_domain.get(domain)
        if keys is None:
            return 0
        if lo is None:
            doomed = keys
            del self._by_domain[domain]
        else:
            doomed = [key for key in keys if lo <= key[1] < hi]
            keys.difference_update(doomed)
            if not keys:
                del self._by_domain[domain]
        entries = self._entries
        for key in doomed:
            del entries[key]
        self.invalidations += len(doomed)
        return len(doomed)

    def clear(self):
        self.generation += 1
        self.invalidations += len(self._entries)
        self._entries.clear()
        self._by_domain.clear()

    def _forget(self, key):
        """Drop a key that just left ``_entries`` from the domain index."""
        keys = self._by_domain[key[0]]
        keys.discard(key)
        if not keys:
            del self._by_domain[key[0]]

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

"""Unit and property tests for the LRU translation cache."""

import collections
import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import TranslationCache
from tests.test_cluster_atc_skip import eviction_order


def key(page, domain="d"):
    """Every cache user keys by ``(domain, page)``."""
    return (domain, page)


def test_hit_and_miss_counting():
    cache = TranslationCache(2)
    hit, _ = cache.lookup(key("a"))
    assert not hit
    cache.insert(key("a"), 1)
    hit, value = cache.lookup(key("a"))
    assert hit and value == 1
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == pytest.approx(0.5)
    assert cache.miss_rate == pytest.approx(0.5)


def test_lru_eviction_order():
    cache = TranslationCache(2)
    cache.insert(key("a"), 1)
    cache.insert(key("b"), 2)
    cache.lookup(key("a"))  # refresh a; b is now LRU
    cache.insert(key("c"), 3)
    assert key("a") in cache
    assert key("b") not in cache
    assert key("c") in cache
    assert cache.evictions == 1


def test_reinsert_does_not_evict():
    cache = TranslationCache(2)
    cache.insert(key("a"), 1)
    cache.insert(key("b"), 2)
    cache.insert(key("a"), 10)  # update, not a new entry
    assert cache.evictions == 0
    assert cache.peek(key("a")) == 10


def test_invalidate():
    cache = TranslationCache(4)
    cache.insert(key("a"), 1)
    cache.insert(key("b"), 2)
    cache.invalidate(key("a"))
    cache.invalidate(key("missing"))  # no-op
    assert key("a") not in cache and key("b") in cache
    assert cache.invalidations == 1


def test_invalidate_domain_and_clear():
    cache = TranslationCache(8)
    for i in range(6):
        cache.insert(("dom", i), i)
    cache.insert(("other", 1), 1)
    removed = cache.invalidate_domain("dom", 2, 5)  # pages 2, 3, 4
    assert removed == 3
    assert len(cache) == 4
    assert [i for i in range(6) if ("dom", i) in cache] == [0, 1, 5]
    assert ("other", 1) in cache
    assert cache.invalidations == 3
    assert cache.invalidate_domain("dom") == 3
    assert not cache.holds_domain("dom") and cache.holds_domain("other")
    assert cache.invalidate_domain("dom") == 0
    cache.clear()
    assert len(cache) == 0
    assert not cache.holds_domain("other")


def test_reset_counters_keeps_contents():
    cache = TranslationCache(2)
    cache.insert(key("a"), 1)
    cache.lookup(key("a"))
    cache.lookup(key("zz"))
    cache.reset_counters()
    assert cache.hits == cache.misses == 0
    assert key("a") in cache


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        TranslationCache(0)


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=16),
    pages=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=200),
)
def test_cache_never_exceeds_capacity_and_counts_balance(capacity, pages):
    cache = TranslationCache(capacity)
    for page in pages:
        hit, _ = cache.lookup(key(page))
        if not hit:
            cache.insert(key(page), page)
        assert len(cache) <= capacity
    assert cache.hits + cache.misses == len(pages)


@settings(max_examples=30, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=8))
def test_cyclic_access_beyond_capacity_always_misses(capacity):
    """LRU's pathology: a cyclic scan one entry wider than the cache never
    hits — this is exactly the Figure 8 round-robin worst case."""
    cache = TranslationCache(capacity)
    working_set = capacity + 1
    for _ in range(5):  # several full cycles
        for page in range(working_set):
            hit, _ = cache.lookup(key(page))
            if not hit:
                cache.insert(key(page), page)
    assert cache.hits == 0


class ShadowCache:
    """Brute-force reference: the LRU semantics on a bare ``OrderedDict``,
    with no domain index; a domain invalidation scans every key, and a
    cold insert is a miss plus an insert per page."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = collections.OrderedDict()
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def lookup(self, key):
        if key in self.entries:
            self.entries.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1

    def insert(self, key, value):
        if key in self.entries:
            self.entries.move_to_end(key)
        elif len(self.entries) >= self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1
        self.entries[key] = value

    def insert_cold(self, domain, pages, values):
        for page, value in zip(pages, values):
            self.lookup((domain, page))
            self.insert((domain, page), value)

    def invalidate(self, key):
        if key in self.entries:
            del self.entries[key]
            self.invalidations += 1

    def invalidate_domain(self, domain, lo=None, hi=None):
        doomed = [k for k in self.entries if k[0] == domain
                  and (lo is None or lo <= k[1] < hi)]
        for k in doomed:
            self.invalidate(k)
        return len(doomed)

    def clear(self):
        self.invalidations += len(self.entries)
        self.entries.clear()

    def holds_domain(self, domain):
        return any(k[0] == domain for k in self.entries)


SHADOW_DOMAINS = ("d0", "d1", "d2")
SHADOW_PAGES = 6


@st.composite
def cache_programs(draw):
    capacity = draw(st.integers(min_value=1, max_value=6))
    domain = st.sampled_from(SHADOW_DOMAINS)
    page = st.integers(0, SHADOW_PAGES - 1)
    op = st.one_of(
        st.tuples(st.sampled_from(["lookup", "insert", "invalidate"]),
                  domain, page),
        st.tuples(st.just("invalidate_domain"), domain),
        st.tuples(st.just("invalidate_range"), domain, page,
                  st.integers(0, SHADOW_PAGES)),
        st.tuples(st.just("insert_cold"), domain,
                  st.lists(page, unique=True, max_size=SHADOW_PAGES)),
        st.tuples(st.just("clear")),
    )
    return capacity, draw(st.lists(op, max_size=40))


@settings(max_examples=300, deadline=None)
@given(program=cache_programs())
def test_domain_index_matches_a_brute_force_shadow(program):
    capacity, ops = program
    cache = TranslationCache(capacity)
    shadow = ShadowCache(capacity)
    universe = [(d, p) for d in SHADOW_DOMAINS for p in range(SHADOW_PAGES)]
    for op in ops:
        kind = op[0]
        if kind in ("lookup", "insert", "invalidate"):
            k = (op[1], op[2])
            args = (k, ("v", k)) if kind == "insert" else (k,)
            for target in (cache, shadow):
                getattr(target, kind)(*args)
        elif kind == "invalidate_domain":
            assert cache.invalidate_domain(op[1]) == shadow.invalidate_domain(
                op[1])
        elif kind == "invalidate_range":
            _, d, lo, hi = op
            assert (cache.invalidate_domain(d, lo, hi)
                    == shadow.invalidate_domain(d, lo, hi))
        elif kind == "insert_cold":
            _, d, pages = op
            if shadow.holds_domain(d):
                continue  # outside insert_cold's contract
            values = [("cold", d, p) for p in pages]
            cache.insert_cold(d, pages, values)
            shadow.insert_cold(d, pages, values)
        else:
            cache.clear()
            shadow.clear()
        assert (cache.hits, cache.misses, cache.evictions,
                cache.invalidations) == (shadow.hits, shadow.misses,
                                         shadow.evictions, shadow.invalidations)
        assert len(cache) == len(shadow.entries)
        assert {k: cache.peek(k) for k in universe if k in cache} == dict(
            shadow.entries)
        assert eviction_order(cache, universe) == list(shadow.entries)
        # holds_domain is the index's membership test: True for a domain
        # with no entry means the index kept an empty (or stale) set.
        for d in SHADOW_DOMAINS:
            assert cache.holds_domain(d) == shadow.holds_domain(d)
        # Dropping each domain from a copy removes exactly its keys: a
        # stale key in the index raises, a missing one stays cached.
        probe = copy.deepcopy(cache)
        for d in SHADOW_DOMAINS:
            assert probe.invalidate_domain(d) == sum(
                k[0] == d for k in shadow.entries)
        assert len(probe) == 0

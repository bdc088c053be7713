"""The shared ATC's touch fast paths against the per-page lookup loop.

:class:`repro.cluster.host.SharedAtc` skips the lookups of a touch that
repeats the previous all-hit touch (same sample object, same domain, no
cache operation since), and charges a domain's cold first touch of
distinct pages in one batch.  These tests run random operation sequences
on a real ``SharedAtc`` and on a reference copy of the plain per-page
loop, and require the two to agree, after every operation, on the
returned hits, every cache counter, ``translation_seconds`` (with
``==``) and the LRU order; on a real IOMMU, on its IOTLB as well.
"""

import copy
import sys
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import calibration
from repro.cluster.host import SharedAtc
from repro.memory import Iommu, MemoryKind
from repro.memory.caches import TranslationCache

PAGE = calibration.GDR_PAGE_BYTES
PAGE_INDICES = 5


class FakeIommu:
    """Stateless ATS replies whose latency varies by page, so the order of
    the float additions into ``translation_seconds`` matters."""

    def ats_translate(self, domain, page):
        index = page // PAGE
        return SimpleNamespace(
            hpa=(1 << 40) + page + len(domain),
            kind="ats",
            latency=1e-7 * (1 + index % 5) / 3.0,
        )

    def ats_translate_many(self, domain, pages):
        replies = [self.ats_translate(domain, page) for page in pages]
        return ([(r.hpa, r.kind) for r in replies],
                [r.latency for r in replies])


class ReferenceAtc:
    """The per-page loop every touch ran before the fast paths existed."""

    def __init__(self, capacity, iommu=None):
        self.iommu = FakeIommu() if iommu is None else iommu
        self.cache = TranslationCache(capacity, name="reference")
        self.translation_seconds = 0.0

    def access_many(self, domain, das):
        hits = 0
        for da in das:
            key = (domain, da - (da % PAGE))
            hit, _ = self.cache.lookup(key)
            if hit:
                self.translation_seconds += calibration.ATC_HIT_SECONDS
                hits += 1
            else:
                result = self.iommu.ats_translate(domain, key[1])
                self.cache.insert(key, (result.hpa, result.kind))
                self.translation_seconds += (
                    calibration.ATC_HIT_SECONDS + result.latency
                )
        return hits

    def invalidate_domain(self, domain):
        # Key by key over every page a test can cache, so the reference
        # does not go through the domain index under test.
        for index in range(PAGE_INDICES):
            self.cache.invalidate((domain, index * PAGE))


def counters(atc):
    cache = atc.cache
    return (cache.hits, cache.misses, cache.evictions, cache.invalidations,
            len(cache), atc.translation_seconds)


def eviction_order(cache, universe):
    """Read the LRU order: fill a copy of the cache with fresh keys and
    record which old key each insert evicts."""
    cache = copy.deepcopy(cache)
    alive = [key for key in universe if key in cache]
    order = []
    for n in range(cache.capacity):
        cache.insert(("fresh", n), None)
        gone = [key for key in alive if key not in cache]
        order.extend(gone)
        alive = [key for key in alive if key in cache]
    return order


@st.composite
def scenarios(draw):
    capacity = draw(st.integers(min_value=1, max_value=6))
    domains = ["d%d" % d for d in range(draw(st.integers(1, 4)))]
    address = st.tuples(
        st.integers(0, PAGE_INDICES - 1), st.sampled_from([0, 1, PAGE - 1])
    ).map(lambda pair: pair[0] * PAGE + pair[1])
    samples = draw(st.lists(
        st.tuples(st.sampled_from(domains),
                  st.lists(address, max_size=7).map(tuple)),
        min_size=1, max_size=4,
    ))
    domain = st.integers(0, len(domains) - 1)
    page = st.integers(0, PAGE_INDICES - 1)
    # Direct cache calls are listed twice: between two touches of one
    # sample they are what a missed generation bump would let through.
    direct = st.tuples(st.sampled_from(["lookup", "insert", "invalidate"]),
                       domain, page)
    other = st.one_of(
        st.none(),
        direct,
        direct,
        st.tuples(st.just("invalidate_domain"), domain),
        st.tuples(st.just("invalidate_page"), page),
        st.tuples(st.sampled_from(["clear", "reset_counters"])),
    )
    # Each step touches one sample 1-3 times in a row (repeats are the
    # skipped case), through an equal copy instead of the sample object
    # itself when the copy flag is drawn, then runs one other operation.
    steps = draw(st.lists(
        st.tuples(st.integers(0, len(samples) - 1), st.integers(1, 3),
                  st.sampled_from([False, False, False, True]), other),
        max_size=25,
    ))
    ops = []
    for index, repeats, copy, after in steps:
        domain_name, sample = samples[index]
        if copy:
            sample = tuple(list(sample))
        ops.extend([("touch", domain_name, sample)] * repeats)
        if after is not None:
            ops.append(after)
    return capacity, domains, ops


def between_repeats(capacity, op, before=()):
    """A pinned scenario: one cache operation between two touches of a
    sample whose previous touch was all hits."""
    touch = ("touch", "d0", (0,))
    return (capacity, ["d0", "d1"],
            list(before) + [touch, touch, op, touch])


def cold_touches(capacity, samples, clear_between=False):
    """A pinned scenario: each sample is the first touch of a fresh domain
    (page indices; repeated indices make a duplicate page)."""
    domains = ["d%d" % d for d in range(len(samples))]
    ops = []
    for domain, indices in zip(domains, samples):
        sample = tuple(i * PAGE for i in indices)
        ops.extend([("touch", domain, sample)] * 2)
        if clear_between:
            ops.append(("clear",))
    return capacity, domains, ops


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios())
@example(scenario=between_repeats(2, ("lookup", 1, 0),
                                  before=[("insert", 1, 0)]))
@example(scenario=between_repeats(1, ("insert", 0, 1)))
@example(scenario=between_repeats(2, ("invalidate", 0, 0)))
@example(scenario=between_repeats(2, ("invalidate_page", 0)))
@example(scenario=between_repeats(2, ("clear",)))
@example(scenario=cold_touches(2, [(0, 1, 2), (0, 0)]))
@example(scenario=cold_touches(3, [(0, 1), (2, 3, 4), (1, 3)]))
@example(scenario=cold_touches(1, [(4, 2, 0)], clear_between=True))
def test_skip_matches_the_per_page_loop(scenario):
    capacity, domains, ops = scenario
    atc = SharedAtc(FakeIommu(), capacity_pages=capacity)
    ref = ReferenceAtc(capacity)
    universe = [(d, i * PAGE) for d in domains for i in range(PAGE_INDICES)]
    for op in ops:
        kind = op[0]
        if kind == "touch":
            _, domain, sample = op
            assert atc.access_many(domain, sample) == ref.access_many(
                domain, sample
            )
        elif kind == "invalidate_domain":
            atc.invalidate_domain(domains[op[1]])
            ref.invalidate_domain(domains[op[1]])
        elif kind == "invalidate_page":
            for cache in (atc.cache, ref.cache):
                for domain in domains:
                    cache.invalidate_domain(domain, op[1] * PAGE,
                                            (op[1] + 1) * PAGE)
        elif kind in ("clear", "reset_counters"):
            getattr(atc.cache, kind)()
            getattr(ref.cache, kind)()
        else:
            key = (domains[op[1]], op[2] * PAGE)
            for cache in (atc.cache, ref.cache):
                if kind == "lookup":
                    cache.lookup(key)
                elif kind == "insert":
                    cache.insert(key, ("direct", key[1]))
                else:
                    cache.invalidate(key)
        assert counters(atc) == counters(ref)
        assert (eviction_order(atc.cache, universe)
                == eviction_order(ref.cache, universe))


class TestSkipIsTaken:
    def test_third_touch_of_an_all_hit_sample_does_no_lookups(self):
        atc = SharedAtc(FakeIommu(), capacity_pages=8)
        sample = tuple(i * PAGE for i in (0, 1, 2, 1))
        assert atc.access_many("d0", sample) == 1  # the duplicate hits
        assert atc.access_many("d0", sample) == 4  # all hit: remembered
        generation = atc.cache.generation
        assert atc.access_many("d0", sample) == 4
        assert atc.cache.generation == generation  # no lookup ran

    def test_any_cache_operation_between_touches_disables_the_skip(self):
        atc = SharedAtc(FakeIommu(), capacity_pages=8)
        sample = (0, PAGE)
        atc.access_many("d0", sample)
        atc.access_many("d0", sample)
        atc.cache.lookup(("d0", 0))
        generation = atc.cache.generation
        assert atc.access_many("d0", sample) == 2
        assert atc.cache.generation == generation + len(sample)

    def test_invalidating_the_domain_forgets_its_sample(self):
        atc = SharedAtc(FakeIommu(), capacity_pages=8)
        sample = (0, PAGE)
        atc.access_many("d0", sample)
        atc.access_many("d0", sample)
        held = sys.getrefcount(sample)
        atc.invalidate_domain("d1")  # another tenant: sample kept
        assert sys.getrefcount(sample) == held
        atc.invalidate_domain("d0")
        assert sys.getrefcount(sample) == held - 1  # the ATC let go of it
        assert atc.snapshot()["size"] == 0
        assert atc.access_many("d0", sample) == 0


def real_iommu(domains, iotlb_capacity):
    iommu = Iommu(iotlb_capacity=iotlb_capacity)
    for n, domain in enumerate(domains):
        iommu.create_domain(domain)
        iommu.map(domain, 0, (n + 1) << 32, PAGE_INDICES * PAGE,
                  kind=MemoryKind.GPU_HBM, pin=False)
    return iommu


def iotlb_state(iommu, universe):
    iotlb = iommu.iotlb
    return ((iotlb.hits, iotlb.misses, iotlb.evictions, iotlb.invalidations,
             len(iotlb)),
            {key: iotlb.peek(key) for key in universe if key in iotlb},
            eviction_order(iotlb, universe))


@st.composite
def iommu_scenarios(draw):
    capacity, domains, ops = draw(scenarios())
    iotlb_capacity = draw(st.integers(min_value=1, max_value=8))
    # Interleave IOTLB-only flushes, so an ATC-cold domain may meet a warm
    # IOTLB and the reverse.
    flushes = draw(st.lists(
        st.tuples(st.integers(0, len(ops)), st.integers(0, len(domains) - 1)),
        max_size=4,
    ))
    for at, domain in sorted(flushes, reverse=True):
        ops.insert(at, ("flush_iotlb", domain))
    return capacity, iotlb_capacity, domains, ops


@settings(max_examples=150, deadline=None)
@given(scenario=iommu_scenarios())
@example(scenario=(4, 8, ["d0", "d1"], [
    ("touch", "d0", (0, PAGE)), ("invalidate_domain", 0),
    ("touch", "d0", (0, PAGE)),  # ATC cold, IOTLB warm
    ("flush_iotlb", 1), ("touch", "d1", (PAGE, 2 * PAGE, 0)),
]))
@example(scenario=(6, 2, ["d0"], [("touch", "d0", (0, PAGE, 2 * PAGE))]))
def test_cold_touch_matches_the_loop_on_a_real_iommu(scenario):
    """Both caches, ATC and IOTLB, end each step as the per-page loop
    leaves them, whichever of them is cold for the touched domain."""
    capacity, iotlb_capacity, domains, ops = scenario
    atc = SharedAtc(real_iommu(domains, iotlb_capacity),
                    capacity_pages=capacity)
    ref = ReferenceAtc(capacity, real_iommu(domains, iotlb_capacity))
    universe = [(d, i * PAGE) for d in domains for i in range(PAGE_INDICES)]
    for op in ops:
        kind = op[0]
        if kind == "touch":
            assert atc.access_many(op[1], op[2]) == ref.access_many(
                op[1], op[2])
        elif kind == "invalidate_domain":
            atc.invalidate_domain(domains[op[1]])
            ref.invalidate_domain(domains[op[1]])
        elif kind == "flush_iotlb":
            for iommu in (atc.iommu, ref.iommu):
                iommu.iotlb.invalidate_domain(domains[op[1]])
        else:
            continue  # direct ATC calls are covered above
        assert counters(atc) == counters(ref)
        assert (eviction_order(atc.cache, universe)
                == eviction_order(ref.cache, universe))
        assert ({key: atc.cache.peek(key) for key in universe}
                == {key: ref.cache.peek(key) for key in universe})
        assert (iotlb_state(atc.iommu, universe)
                == iotlb_state(ref.iommu, universe))


class TestColdTouchIsTaken:
    def test_first_touch_of_distinct_pages_is_one_batch(self):
        atc = SharedAtc(FakeIommu(), capacity_pages=8)
        generation = atc.cache.generation
        sample = (0, PAGE, 2 * PAGE)
        assert atc.access_many("d0", sample) == 0
        assert atc.cache.generation == generation + 1  # one insert_cold
        assert atc.cache.misses == 3 and len(atc.cache) == 3
        assert atc.access_many("d0", sample) == 3
        assert atc.cache.generation == generation + 1  # skipped lookups

    def test_a_cold_touch_beyond_capacity_is_not_skipped_next(self):
        atc = SharedAtc(FakeIommu(), capacity_pages=2)
        sample = (0, PAGE, 2 * PAGE)
        assert atc.access_many("d0", sample) == 0  # page 0 evicted
        assert atc.access_many("d0", sample) == 0  # the loop: all miss

    def test_duplicate_pages_take_the_loop(self):
        atc = SharedAtc(FakeIommu(), capacity_pages=8)
        generation = atc.cache.generation
        assert atc.access_many("d0", (0, 1, PAGE)) == 1  # 0 and 1 share a page
        assert atc.cache.generation == generation + 5  # 3 lookups, 2 inserts

    def test_a_warm_domain_takes_the_loop(self):
        atc = SharedAtc(FakeIommu(), capacity_pages=8)
        atc.access_many("d0", (0,))
        generation = atc.cache.generation
        assert atc.access_many("d0", (PAGE, 2 * PAGE)) == 0
        assert atc.cache.generation == generation + 4

"""Unit and property tests for the interval-based RangeMap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import AddressError, MemoryKind, PageFault, RangeMap


def test_basic_map_translate():
    rm = RangeMap()
    rm.map_range(0x1000, 0x100000, 0x2000, kind=MemoryKind.GPU_HBM)
    assert rm.translate(0x1000) == 0x100000
    assert rm.translate(0x2FFF) == 0x101FFF
    assert rm.lookup(0x1500).kind is MemoryKind.GPU_HBM
    assert rm.is_mapped(0x1000)
    assert not rm.is_mapped(0x3000)
    assert rm.mapped_bytes == 0x2000


def test_unmapped_translate_faults():
    rm = RangeMap()
    with pytest.raises(PageFault):
        rm.translate(0x42)


def test_overlap_rejected_without_overwrite():
    rm = RangeMap()
    rm.map_range(0x1000, 0xA000, 0x1000)
    with pytest.raises(AddressError):
        rm.map_range(0x1800, 0xB000, 0x1000)
    # Identical re-install is tolerated (idempotent driver behaviour).
    rm.map_range(0x1000, 0xA000, 0x1000)
    assert len(rm) == 1


def test_overwrite_replaces_covered_portion():
    rm = RangeMap()
    rm.map_range(0x0, 0xA0000, 0x4000)
    rm.map_range(0x1000, 0xF0000, 0x1000, overwrite=True)
    assert rm.translate(0x0800) == 0xA0800  # head of original survives
    assert rm.translate(0x1800) == 0xF0800  # new mapping
    assert rm.translate(0x2800) == 0xA2800  # tail of original survives
    assert len(rm) == 3


def test_unmap_middle_splits():
    rm = RangeMap()
    rm.map_range(0x0, 0xA0000, 0x3000)
    rm.unmap_range(0x1000, 0x1000)
    assert rm.translate(0x0FFF) == 0xA0FFF
    with pytest.raises(PageFault):
        rm.translate(0x1000)
    assert rm.translate(0x2000) == 0xA2000
    assert rm.mapped_bytes == 0x2000


def test_unmap_with_holes_requires_partial_ok():
    rm = RangeMap()
    rm.map_range(0x0, 0xA0000, 0x1000)
    rm.map_range(0x2000, 0xB0000, 0x1000)
    with pytest.raises(PageFault):
        rm.unmap_range(0x0, 0x3000)
    rm2 = RangeMap()
    rm2.map_range(0x0, 0xA0000, 0x1000)
    rm2.map_range(0x2000, 0xB0000, 0x1000)
    removed = rm2.unmap_range(0x0, 0x3000, partial_ok=True)
    assert removed == 0x2000
    assert len(rm2) == 0


def test_readonly_mapping_rejects_writes():
    rm = RangeMap()
    rm.map_range(0x0, 0xA0000, 0x1000, writable=False)
    assert rm.translate(0x10, write=False) == 0xA0010
    with pytest.raises(PageFault):
        rm.translate(0x10, write=True)
    with pytest.raises(PageFault):
        rm.translate_region(0x0, 0x10, write=True)


def test_translate_region_coalesces_adjacent_targets():
    rm = RangeMap()
    rm.map_range(0x0000, 0xA0000, 0x1000)
    rm.map_range(0x1000, 0xA1000, 0x1000)  # adjacent in target space
    rm.map_range(0x2000, 0xC0000, 0x1000)  # not adjacent
    chunks = rm.translate_region(0x0, 0x3000)
    assert chunks == [(0x0, 0xA0000, 0x2000), (0x2000, 0xC0000, 0x1000)]


def test_translate_region_faults_on_hole():
    rm = RangeMap()
    rm.map_range(0x0, 0xA0000, 0x1000)
    with pytest.raises(PageFault):
        rm.translate_region(0x800, 0x1000)


def test_terabyte_mapping_is_one_interval():
    rm = RangeMap()
    rm.map_range(0x0, 0x40000000, int(1.6e12))
    assert len(rm) == 1
    assert rm.translate(int(1.0e12)) == 0x40000000 + int(1.0e12)


def test_zero_length_rejected():
    rm = RangeMap()
    with pytest.raises(AddressError):
        rm.map_range(0x0, 0x0, 0)
    rm.map_range(0x0, 0xA0000, 0x1000)
    with pytest.raises(AddressError):
        rm.unmap_range(0x0, 0)
    with pytest.raises(AddressError):
        rm.translate_region(0x0, 0)


PAGE = 0x1000


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["map", "unmap"]),
            st.integers(min_value=0, max_value=30),  # start page
            st.integers(min_value=1, max_value=8),  # page count
        ),
        min_size=1,
        max_size=40,
    )
)
def test_rangemap_matches_dict_model(ops):
    """RangeMap must agree with a naive per-page dict model under arbitrary
    overwrite-map/partial-unmap sequences."""
    rm = RangeMap()
    model = {}
    next_frame = 0x100000
    for op, start, count in ops:
        src = start * PAGE
        length = count * PAGE
        if op == "map":
            rm.map_range(src, next_frame, length, overwrite=True)
            for i in range(count):
                model[src + i * PAGE] = next_frame + i * PAGE
            next_frame += length + PAGE  # keep frames non-adjacent
        else:
            rm.unmap_range(src, length, partial_ok=True)
            for i in range(count):
                model.pop(src + i * PAGE, None)
    for page in range(0, 40 * PAGE, PAGE):
        if page in model:
            assert rm.translate(page + 7) == model[page] + 7
        else:
            assert not rm.is_mapped(page)
    assert rm.mapped_bytes == len(model) * PAGE


@settings(max_examples=100, deadline=None)
@given(
    spans=st.lists(
        st.tuples(st.integers(0, 31), st.integers(1, 4)), max_size=8
    ),
    addresses=st.lists(st.integers(-2, 40), max_size=30),
)
def test_lookup_many_equals_lookup_per_address(spans, addresses):
    """Adjacent, gapped and overwritten intervals; addresses in any order,
    repeated, before the first and past the last interval."""
    rm = RangeMap()
    for start, length in spans:
        rm.map_range(start, 1000 + start, length, overwrite=True)
    assert rm.lookup_many(addresses) == [rm.lookup(a) for a in addresses]

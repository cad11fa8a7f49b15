"""Span-arithmetic page-cache accounting vs the per-page reference.

`PageCache._touch` takes bulk fast paths (whole-span hit, whole-span
miss).  These tests drive two caches through identical random traces —
the real one and `tests.reference.batch.PerPagePageCache`, which touches
every page of every span one by one — and require identical counters,
identical LRU order, identical eviction victims, and an intact secondary
index at every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.extent import Extent
from repro.storage.pagecache import PageCache
from tests.reference.batch import PerPagePageCache

PAGE = 64


def make_extents():
    # Fixed ids so both caches in a comparison see the same keys.
    return [
        Extent(offset=0, size=40 * PAGE, extent_id=1_000),
        Extent(offset=40 * PAGE, size=10 * PAGE, extent_id=1_001),
        Extent(offset=50 * PAGE, size=3 * PAGE + 7, extent_id=1_002),
    ]


touches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # extent index
        st.integers(min_value=0, max_value=45 * PAGE),  # offset
        st.integers(min_value=0, max_value=44 * PAGE),  # nbytes
        st.booleans(),  # is_read
    ),
    min_size=1,
    max_size=60,
)


def run_trace(trace, capacity_pages, cache_cls):
    extents = make_extents()
    cache = cache_cls(capacity_pages * PAGE, PAGE)
    states = []
    for ext_i, offset, nbytes, is_read in trace:
        extent = extents[ext_i]
        if is_read:
            owed = cache.read_charges(extent, nbytes, 1.0, offset)
        else:
            owed = cache.write_charges(extent, nbytes, 1.0, offset)
        states.append(
            (
                owed,
                cache.snapshot(),
                tuple(cache._pages),  # full LRU order
                {k: frozenset(v) for k, v in cache._by_extent.items()},
            )
        )
    return states


@given(touches, st.integers(min_value=1, max_value=50))
@settings(max_examples=max(150, settings().max_examples), deadline=None)
def test_bulk_touch_matches_per_page_reference(trace, capacity_pages):
    assert run_trace(trace, capacity_pages, PageCache) == run_trace(
        trace, capacity_pages, PerPagePageCache
    )


def test_cold_sweep_larger_than_cache_matches_reference():
    # k > capacity: later admissions evict earlier pages of the same
    # span, which the arithmetic path cannot express — it must fall back.
    trace = [(0, 0, 40 * PAGE, True), (0, 0, 40 * PAGE, True)]
    assert run_trace(trace, 8, PageCache) == run_trace(trace, 8, PerPagePageCache)


def test_warm_sweep_skips_disk_charges():
    extent = Extent(offset=0, size=16 * PAGE, extent_id=2_000)
    cache = PageCache(32 * PAGE, PAGE)
    assert cache.read_charges(extent, 16 * PAGE, 1.0) == (1.0, 16 * PAGE)
    assert cache.read_charges(extent, 16 * PAGE, 1.0) == (0.0, 0)
    assert cache.hits == 16 and cache.misses == 16


def test_bulk_admit_counts_evictions_exactly():
    a = Extent(offset=0, size=8 * PAGE, extent_id=3_000)
    b = Extent(offset=8 * PAGE, size=8 * PAGE, extent_id=3_001)
    cache = PageCache(10 * PAGE, PAGE)
    cache.read_charges(a, 8 * PAGE, 1.0)
    cache.read_charges(b, 8 * PAGE, 1.0)
    # 16 admits into 10 slots: 6 LRU victims, all from extent a.
    assert cache.evictions == 6
    assert cache.resident_pages == 10
    assert sorted(cache._by_extent[3_000]) == [6, 7]
    assert sorted(cache._by_extent[3_001]) == list(range(8))


def test_invalidate_after_bulk_admit():
    extent = Extent(offset=0, size=8 * PAGE, extent_id=4_000)
    cache = PageCache(32 * PAGE, PAGE)
    cache.read_charges(extent, 8 * PAGE, 1.0)
    assert cache.invalidate_extent(extent) == 8
    assert cache.resident_pages == 0
    assert extent.extent_id not in cache._by_extent

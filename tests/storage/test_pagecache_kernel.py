"""Span-arithmetic page-cache accounting vs the per-page reference.

`PageCache.read_charges` / `.write_charges` serve a one-page touch in
their own frame and `_touch_span` takes bulk fast paths (whole-span hit,
whole-span miss); `invalidate_extent` looks an extent's pages up by index
or finds them in one pass over the resident keys, whichever is shorter.
These tests drive two caches through identical random traces — the real
one and `tests.reference.batch.PerPagePageCache`, which touches every page
of every span one by one and invalidates by filtering every resident key
— and require identical charges, counters, LRU order, eviction victims,
invalidation counts and per-extent residency at every step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.disk import SimulatedDisk
from repro.storage.extent import Extent
from repro.storage.pagecache import PageCache
from tests.reference.batch import PerPagePageCache
from tests.reference.disk import resident_by_extent

PAGE = 64


def make_extents():
    # Fixed ids so both caches in a comparison see the same keys.
    return [
        Extent(offset=0, size=40 * PAGE, extent_id=1_000),
        Extent(offset=40 * PAGE, size=10 * PAGE, extent_id=1_001),
        Extent(offset=50 * PAGE, size=3 * PAGE + 7, extent_id=1_002),
        Extent(offset=54 * PAGE, size=0, extent_id=1_003),
    ]


touches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # extent index
        st.integers(min_value=0, max_value=45 * PAGE),  # offset
        st.integers(min_value=0, max_value=44 * PAGE),  # nbytes
        # read, write, or (one step in seven) drop the extent's pages
        st.sampled_from([True, False] * 3 + [None]),
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
        if is_read is None:
            owed = cache.invalidate_extent(extent)
        elif is_read:
            owed = cache.read_charges(extent, nbytes, 1.0, offset)
        else:
            owed = cache.write_charges(extent, nbytes, 1.0, offset)
        states.append(state(cache, owed))
    return states


def state(cache, returned):
    """Everything observable about ``cache`` after a call that returned ``returned``."""
    return (
        returned,
        cache.snapshot(),
        tuple(cache._pages),  # full LRU order
        resident_by_extent(cache),
    )


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
    assert sorted(resident_by_extent(cache)[3_000]) == [6, 7]
    assert sorted(resident_by_extent(cache)[3_001]) == list(range(8))


def test_invalidate_after_bulk_admit():
    extent = Extent(offset=0, size=8 * PAGE, extent_id=4_000)
    cache = PageCache(32 * PAGE, PAGE)
    cache.read_charges(extent, 8 * PAGE, 1.0)
    assert cache.invalidate_extent(extent) == 8
    assert cache.resident_pages == 0
    assert extent.extent_id not in resident_by_extent(cache)


# ----------------------------------------------------------------------
# Invalidation shapes
# ----------------------------------------------------------------------


def test_invalidating_an_extent_larger_than_the_cache_matches_reference():
    # 40 pages against an 8-page cache: the resident-key pass, not the
    # page-index lookup.
    big = Extent(offset=0, size=40 * PAGE, extent_id=5_000)
    small = Extent(offset=40 * PAGE, size=3 * PAGE, extent_id=5_001)

    def run(cache_cls):
        cache = cache_cls(8 * PAGE, PAGE)
        states = []
        for extent, offset, nbytes in [
            (big, 0, 40 * PAGE),
            (small, 0, 2 * PAGE),
            (big, 33 * PAGE + 5, 10),
            (big, 2 * PAGE, 3 * PAGE),
        ]:
            states.append(state(cache, cache.read_charges(extent, nbytes, 1.0, offset)))
        states.append(state(cache, cache.invalidate_extent(big)))
        states.append(state(cache, cache.invalidate_extent(big)))
        return states

    states = run(PageCache)
    assert states == run(PerPagePageCache)
    resident_before = [key for key in states[-3][2] if key[0] == 5_000]
    assert states[-2][0] == len(resident_before) > 0 and states[-1][0] == 0
    assert {ext_id for ext_id, _ in states[-1][2]} == {5_001}


def test_invalidating_a_zero_size_extent_matches_reference():
    empty = Extent(offset=0, size=0, extent_id=6_000)
    other = Extent(offset=0, size=2 * PAGE, extent_id=6_001)

    def run(cache_cls):
        cache = cache_cls(4 * PAGE, PAGE)
        states = [state(cache, cache.invalidate_extent(empty))]
        states.append(state(cache, cache.read_charges(other, 2 * PAGE, 1.0)))
        states.append(state(cache, cache.read_charges(empty, 10, 1.0)))
        states.append(state(cache, cache.invalidate_extent(empty)))
        return states

    states = run(PageCache)
    assert states == run(PerPagePageCache)
    assert states[-1][0] == 0 and states[-1][1].resident_pages == 2


class Recorder:
    """A disk over ``cache_cls`` that records what invalidation returned."""

    def __init__(self, cache_cls, capacity_pages):
        self.disk = SimulatedDisk(page_cache=cache_cls(capacity_pages * PAGE, PAGE))
        self.cache = self.disk.page_cache
        self.returned = []
        invalidate = self.cache.invalidate_extent

        def recording(extent):
            self.returned.append(invalidate(extent))
            return self.returned[-1]

        self.cache.invalidate_extent = recording
        self.ordinal = {}

    def allocate(self, nbytes):
        return self.adopt(self.disk.allocate(nbytes))

    def adopt(self, extent):
        self.ordinal[extent.extent_id] = len(self.ordinal)
        return extent

    def state(self):
        # Extent ids differ between the two disks; allocation order does not.
        cache = self.cache
        return (
            list(self.returned),
            self.disk.clock,
            self.disk.snapshot(),
            cache.snapshot(),
            [(self.ordinal[ext_id], page) for ext_id, page in cache._pages],
        )


@pytest.mark.parametrize("capacity_pages", [3, 6, 64])
def test_reallocating_a_resident_extent_matches_reference(capacity_pages):
    def run(cache_cls):
        device = Recorder(cache_cls, capacity_pages)
        disk = device.disk
        bucket = device.allocate(2 * PAGE + 9)
        neighbour = device.allocate(PAGE)
        states = []
        for touch in (
            lambda: disk.read(bucket),
            lambda: disk.write(neighbour, 10),
            lambda: disk.write(bucket, 9, offset=2 * PAGE),
        ):
            touch()
            states.append(device.state())
        grown = device.adopt(disk.reallocate(bucket, 5 * PAGE))
        states.append(device.state())
        disk.write(grown, 5 * PAGE)
        states.append(device.state())
        disk.read(neighbour, 10)
        states.append(device.state())
        return states

    states = run(PageCache)
    assert states == run(PerPagePageCache)
    # Exactly the old extent's resident pages are dropped.
    assert states[3][0] == [sum(ordinal == 0 for ordinal, _ in states[2][4])]


@pytest.mark.parametrize("capacity_pages", [2, 5, 64])
def test_freeing_a_shared_extent_with_resident_slices_matches_reference(
    capacity_pages,
):
    # A packed index: one shared extent, each bucket a slice at an offset.
    slices = [(0, 40), (40, 100), (3 * PAGE - 8, 30), (7 * PAGE, 3 * PAGE)]

    def run(cache_cls):
        device = Recorder(cache_cls, capacity_pages)
        disk = device.disk
        shared = device.allocate(10 * PAGE + 1)
        private = device.allocate(PAGE)
        states = []
        for offset, nbytes in slices + slices[:2]:
            disk.read(shared, nbytes, offset=offset)
            states.append(device.state())
        disk.read(private, 20)
        disk.free(shared)
        states.append(device.state())
        disk.free(private)
        states.append(device.state())
        return states

    states = run(PageCache)
    assert states == run(PerPagePageCache)
    assert states[-1][3].resident_pages == 0

"""The in-place delete cuts on the readers' day column: proven the same.

``ConstituentIndex.delete_days`` looks at each bucket's *current* run
(the run a reader left, under ``Bucket.run()``'s currency rule; the
delete never builds one).  Where that run's day column is sorted, a
bucket whose bounds miss the deleted days is skipped and any other keeps
what is left between two bisects per deleted day (``kernels.cut_days``);
elsewhere what it keeps is the comprehension over the entries.  The comprehension
everywhere is ``tests.reference.delete.delete_days_comprehension``: on
twin indexes the two must keep the same lists and leave the same clock,
``IOStats``, page-cache counters, LRU order and extents — over buckets
with and without a current run, sorted and unsorted columns, stale runs,
one-day and multi-day sets, shared (packed) and private buckets
(``--hypothesis-profile nightly``: 2 000 examples).  A fault keeps its
meaning: one on a bucket's read leaves its entries untouched, one on its
write leaves them compacted.
"""

import operator
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulatedCrash
from repro.index import kernels
from repro.index.builder import build_packed_index
from repro.index.config import IndexConfig
from repro.index.entry import Entry
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import CrashPoint, FaultInjector, FaultyDisk
from repro.storage.pagecache import PageCache
from tests.reference.delete import delete_days_comprehension

VALUES = "abcdef"
BUILT_DAYS = range(1, 7)
ADDED_DAYS = (7, 8)

day_lists = st.lists(st.sampled_from(BUILT_DAYS), max_size=12)
shapes = st.fixed_dictionaries(
    {
        # value -> (days of its packed entries, keep them in day order?)
        "built": st.dictionaries(
            st.sampled_from(VALUES), st.tuples(day_lists, st.booleans()), min_size=1
        ),
        # value -> days appended after the build (evicts shared buckets)
        "added": st.dictionaries(
            st.sampled_from(VALUES), st.lists(st.sampled_from(ADDED_DAYS), min_size=1,
                                              max_size=6)
        ),
        # values read on the flat form, read after the append, and
        # shortened behind the writers' backs after their read (a stale run)
        "read_flat": st.sets(st.sampled_from(VALUES)),
        "read_after": st.sets(st.sampled_from(VALUES)),
        "stale": st.sets(st.sampled_from(VALUES), max_size=2),
        "cached": st.booleans(),
    }
)
day_sets = st.one_of(
    st.sets(st.sampled_from((*BUILT_DAYS, *ADDED_DAYS)), max_size=1),
    st.sets(st.sampled_from((*BUILT_DAYS, *ADDED_DAYS, 9))),
)


def build(shape, disk=None):
    """An index of ``shape`` on a fresh disk, its readers' runs in place."""
    if disk is None:
        cache = PageCache(3 * 64, 64) if shape["cached"] else None
        disk = SimulatedDisk(page_cache=cache)
    ids = iter(range(10**6))
    grouped = {}
    for value, (days, ordered) in shape["built"].items():
        grouped[value] = [Entry(next(ids), d) for d in (sorted(days) if ordered else days)]
    index = build_packed_index(disk, IndexConfig(), grouped, BUILT_DAYS)
    for value in sorted(shape["read_flat"]):
        if index.bucket(value) is not None:
            index.bucket(value).run()
    if shape["added"]:
        index.insert_postings(
            {v: [Entry(next(ids), d) for d in days] for v, days in shape["added"].items()},
            ADDED_DAYS,
        )
    for value in sorted(shape["read_after"] | shape["stale"]):
        bucket = index.bucket(value)
        if bucket is not None:
            bucket.run()
            if value in shape["stale"] and index._layout is None and bucket.entries:
                bucket.entries.pop()
    return index


def lru_order(cache):
    """The resident pages, coldest first, extents numbered by age."""
    rank = {ext: i for i, ext in enumerate(sorted({ext for ext, _ in cache._pages}))}
    return [(rank[ext], page) for ext, page in cache._pages]


def state(index, seconds):
    disk = index.disk
    cache = disk.page_cache
    return (
        seconds,
        disk.clock,
        disk.snapshot(),
        disk.live_bytes,
        disk.high_water_bytes,
        None if cache is None else (cache.snapshot(), lru_order(cache)),
        index.packed,
        sorted(index.time_set),
        index.allocated_bytes,
        sorted((e.offset, e.size) for e in index.referenced_extents()),
        [
            (b.value, list(b.entries), b.shared, b.capacity_entries,
             b.offset_in_extent, b._run is None)
            for b in index.buckets()
        ],
    )


SORTED_RUNS = {
    "built": {
        "a": ([1, 1, 2, 3, 3, 3, 5], True),
        "b": ([2, 4, 6], True),
        "c": ([3, 1, 2, 1], False),
        "d": ([4, 4], True),
    },
    "added": {"b": [7, 8, 8], "e": [8, 7]},
    "read_flat": {"a", "c", "d"},
    "read_after": {"b", "e"},
    "stale": set(),
    "cached": True,
}


@given(shape=shapes, days=day_sets)
@example(shape=SORTED_RUNS, days={3})
@example(shape=SORTED_RUNS, days={1, 3, 5, 8})
@example(shape=SORTED_RUNS, days={1, 2, 3, 4, 5, 6, 7, 8})
@example(shape={**SORTED_RUNS, "stale": {"a"}}, days={3})
@settings(deadline=None)
def test_the_cut_equals_the_comprehension(shape, days):
    got, want = build(shape), build(shape)
    assert state(got, None) == state(want, None)
    got_s = got.delete_days(days)
    want_s = delete_days_comprehension(want, days)
    assert state(got, got_s) == state(want, want_s)


# ----------------------------------------------------------------------
# The cut itself
# ----------------------------------------------------------------------


def test_a_sorted_column_is_cut_between_bisects():
    entries = [Entry(i, d) for i, d in enumerate([1, 1, 2, 3, 3, 5, 5, 5])]
    column = kernels.Run.of(entries).days
    for days in ([1], [3], [5], [4], [1, 3], [1, 2, 3, 5], [0, 9], [2, 5]):
        kept = kernels.cut_days(entries, column, days)
        want = [e for e in entries if e.day not in days]
        assert kept == want and all(map(operator.is_, kept, want)), days
        # Nothing cut: the list itself; anything cut: a new list.
        assert (kept is entries) == (len(kept) == len(entries)), days
    # The cut reads the column it is given, not the entries' days.
    other = array("q", [1, 2, 2, 2, 3, 3, 3, 4])
    assert kernels.cut_days(entries, other, [2]) == entries[:1] + entries[4:]


def test_the_delete_reads_the_run_a_reader_left_and_builds_none():
    # "a" was read and "b" was not.  A current run whose column differs
    # from the entries steers the cut; one of the wrong length does not.
    shape = {**SORTED_RUNS, "read_flat": {"a"}, "read_after": set(), "added": {}}
    index = build(shape)
    index._unpack()
    a, b = index.bucket("a"), index.bucket("b")
    assert a._run is not None and b._run is None
    doctored = kernels.Run.of([Entry(0, d) for d in [3, 3, 3, 3, 4, 4, 5]])
    a._run = doctored  # a current run whose column lies: the cut obeys it
    index.delete_days([3])
    assert [e.day for e in a.entries] == [3, 3, 5]
    assert b._run is None  # no run was built for the delete
    stale = build(shape)
    stale._unpack()
    stale.bucket("a")._run = kernels.Run.of([Entry(0, 3)])  # wrong length
    stale.delete_days([3])
    assert [e.day for e in stale.bucket("a").entries] == [1, 1, 2, 5]


# ----------------------------------------------------------------------
# Faults keep their meaning
# ----------------------------------------------------------------------


@pytest.mark.parametrize("read_first", [True, False], ids=["cut", "comprehension"])
@pytest.mark.parametrize("after_ios", [0, 1, 2, 3])
def test_a_fault_on_the_read_leaves_entries_a_fault_on_the_write_compacts(
    after_ios, read_first
):
    # "a" is the first bucket the delete touches; with a current sorted
    # run it is cut, without one it takes the comprehension.
    shape = {**SORTED_RUNS, "read_flat": {"a"} if read_first else set(), "added": {}}

    def crashed(delete):
        disk = FaultyDisk(page_cache=PageCache(3 * 64, 64), injector=FaultInjector())
        index = build(shape, disk)
        index._unpack()
        before = {b.value: list(b.entries) for b in index.buckets()}
        assert (index.bucket("a")._run is not None) == read_first
        disk.injector.arm_crash(CrashPoint(after_ios=after_ios))
        with pytest.raises(SimulatedCrash):
            delete(index, [3])
        return index, before

    index, before = crashed(lambda ix, days: ix.delete_days(days))
    twin, _ = crashed(delete_days_comprehension)
    assert state(index, None) == state(twin, None)
    after = {b.value: list(b.entries) for b in index.buckets()}
    # I/O 0 reads "a", 1 writes it, 2 reads "c", 3 writes "c".
    compacted = {"a": after_ios >= 1, "c": after_ios >= 3}
    for value, done in compacted.items():
        want = [e for e in before[value] if e.day != 3] if done else before[value]
        assert after[value] == want, (value, after_ios)

"""The in-place delete cuts by offset on the stored day column: proven the same.

``ConstituentIndex.delete_days`` reads each bucket's day column as the
run lengths the bucket stores beside its entries (``Bucket.lengths()``,
re-derived from the entries only when they were changed behind the
writers' backs).  A bucket whose pairs hold none of the deleted days is
skipped; any other loses those days' spans, found by offset (one slice
when the first run is all that goes, ``kernels.cut_runs`` otherwise),
and reads no entry.  On twin indexes it must
keep the same lists and leave the same clock, ``IOStats``, page-cache
counters, LRU order and extents as the comprehension
(``tests.reference.delete.delete_days_comprehension``) and as the
delete it replaced, which cut on the day column of the run a reader had
left (``tests.reference.delete.delete_days_on_runs``) — over buckets
with and without a run, sorted and unsorted columns, entries shortened
behind the writers' backs, one-day and multi-day sets, shared (packed)
and private buckets (``--hypothesis-profile nightly``: 2 000 examples).
A fault keeps its meaning: one on a bucket's read leaves its entries
untouched, one on its write leaves them compacted.
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
from tests.reference.delete import (
    cut_days,
    delete_days_comprehension,
    delete_days_on_runs,
)

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
    got, want, on_runs = build(shape), build(shape), build(shape)
    assert state(got, None) == state(want, None) == state(on_runs, None)
    got_s = got.delete_days(days)
    want_s = delete_days_comprehension(want, days)
    on_runs_s = delete_days_on_runs(on_runs, days)
    assert state(got, got_s) == state(want, want_s) == state(on_runs, on_runs_s)
    for bucket in got.buckets():
        assert bucket.lengths() == kernels.run_lengths(bucket.entries)


# ----------------------------------------------------------------------
# The cut itself
# ----------------------------------------------------------------------


def test_a_sorted_column_is_cut_between_bisects():
    # The cut the delete used to make on a reader's run, kept as the
    # oracle's (tests.reference.delete.cut_days).
    entries = [Entry(i, d) for i, d in enumerate([1, 1, 2, 3, 3, 5, 5, 5])]
    column = kernels.Run.of(entries).days
    for days in ([1], [3], [5], [4], [1, 3], [1, 2, 3, 5], [0, 9], [2, 5]):
        kept = cut_days(entries, column, days)
        want = [e for e in entries if e.day not in days]
        assert kept == want and all(map(operator.is_, kept, want)), days
        # Nothing cut: the list itself; anything cut: a new list.
        assert (kept is entries) == (len(kept) == len(entries)), days
    # The cut reads the column it is given, not the entries' days.
    other = array("q", [1, 2, 2, 2, 3, 3, 3, 4])
    assert cut_days(entries, other, [2]) == entries[:1] + entries[4:]


class CountedEntry(Entry):
    """An entry that counts reads of its day."""

    __slots__ = ()
    reads = 0

    @property
    def day(self):
        CountedEntry.reads += 1
        return self[1]


def test_the_delete_cuts_on_the_stored_pairs_and_reads_no_entry():
    # "a" was read and "b" was not: the delete neither needs nor builds
    # a run, and reads no entry's day to find what to cut.
    shape = {**SORTED_RUNS, "read_flat": {"a"}, "read_after": set(), "added": {}}
    index = build(shape)
    index._unpack()
    a, b = index.bucket("a"), index.bucket("b")
    assert a._run is not None and b._run is None
    for bucket in index.buckets():
        bucket.entries = [CountedEntry(*e) for e in bucket.entries]
        bucket._run = None
    CountedEntry.reads = 0
    index.delete_days([3, 4])
    assert CountedEntry.reads == 0
    assert b._run is None  # no run was built for the delete
    assert [e[1] for e in a.entries] == [1, 1, 2, 5]
    assert a._lengths == (1, 2, 2, 1, 5, 1)
    assert [e[1] for e in b.entries] == [2, 6] and b._lengths == (2, 1, 6, 1)
    # Pairs of one day that the cut makes neighbours are joined.
    assert [e[1] for e in index.bucket("c").entries] == [1, 2, 1]
    assert index.bucket("c")._lengths == (1, 1, 2, 1, 1, 1)
    index.delete_days([2])
    assert index.bucket("c")._lengths == (1, 2)


def test_pairs_that_lie_steer_the_cut_and_pairs_that_miscount_are_rederived():
    shape = {**SORTED_RUNS, "read_flat": set(), "read_after": set(), "added": {}}
    index = build(shape)
    index._unpack()
    a = index.bucket("a")
    # Pairs that count the entries are believed: the cut obeys them.
    a._lengths = (3, 4, 4, 2, 5, 1)
    index.delete_days([3])
    assert [e.day for e in a.entries] == [3, 3, 5]
    stale = build(shape)
    stale._unpack()
    a = stale.bucket("a")
    a._lengths = (3, 1)  # counts one entry of seven: encoded again
    stale.delete_days([3])
    assert [e.day for e in a.entries] == [1, 1, 2, 5]
    assert a._lengths == (1, 2, 2, 1, 5, 1)


# ----------------------------------------------------------------------
# Faults keep their meaning
# ----------------------------------------------------------------------


@pytest.mark.parametrize("read_first", [True, False], ids=["cut", "comprehension"])
@pytest.mark.parametrize("after_ios", [0, 1, 2, 3])
def test_a_fault_on_the_read_leaves_entries_a_fault_on_the_write_compacts(
    after_ios, read_first
):
    # "a" is the first bucket the delete touches, with a reader's run
    # ("cut") or without one ("comprehension", the old delete's paths);
    # the cut by offset reads neither.
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

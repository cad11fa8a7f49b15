"""Equivalence proofs for the day-column filter kernels.

Every kernel in `repro.index.kernels` must return exactly what the plain
comprehension returns — element-identical lists, same order — for sorted
columns (bisect path) and unsorted columns (mask path, or the
comprehension itself without NumPy).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.bucket import Bucket
from repro.index.entry import Entry
from repro.index.kernels import (
    RangeFilterCache,
    Sweep,
    bucket_day_column,
    bucket_touches_days,
    day_column,
    filter_bucket,
    filter_entries,
    filter_entries_object,
    is_nondecreasing,
)

day_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=40)
ranges = st.tuples(
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-60, max_value=60),
)


def entries_for(days):
    return [Entry(i, day, i) for i, day in enumerate(days)]


@given(day_lists, ranges)
@settings(max_examples=300)
def test_filter_entries_matches_reference(days, bounds):
    t1, t2 = bounds
    entries = entries_for(days)
    expected = filter_entries_object(entries, t1, t2)
    assert filter_entries(entries, t1, t2) == expected


@given(day_lists, ranges)
@settings(max_examples=300)
def test_filter_on_sorted_column_matches_reference(days, bounds):
    t1, t2 = bounds
    days = sorted(days)
    entries = entries_for(days)
    expected = filter_entries_object(entries, t1, t2)
    column = day_column(entries)
    assert is_nondecreasing(column)
    assert filter_entries(entries, t1, t2, column, True) == expected


@given(day_lists, ranges)
@settings(max_examples=200)
def test_filter_bucket_and_cache_match_reference(days, bounds):
    t1, t2 = bounds
    bucket = Bucket(value="v", entries=entries_for(days))
    expected = filter_entries_object(bucket.entries, t1, t2)
    assert filter_bucket(bucket, t1, t2) == expected
    cache = RangeFilterCache.for_bucket(bucket)
    assert cache.filter(t1, t2) == expected
    assert cache.filter(t1, t2) == expected  # memoized second hit


@given(day_lists, ranges)
@settings(max_examples=300)
def test_sweep_and_its_cache_match_reference(days, bounds):
    t1, t2 = bounds
    entries = entries_for(days)
    sweep = Sweep.of(entries, nbytes=7)
    assert sweep.entries == tuple(entries)
    assert list(sweep.days) == days
    assert sweep.sorted == (days == sorted(days))
    assert (sweep.lo, sweep.hi) == ((min(days), max(days)) if days else (0, 0))
    assert sweep.nbytes == 7
    entries.clear()  # the sweep is its own copy
    expected = filter_entries_object(sweep.entries, t1, t2)
    cache = RangeFilterCache.for_sweep(sweep)
    assert cache.filter(t1, t2) == expected
    assert cache.filter(t1, t2) is cache.filter(t1, t2)


@given(day_lists, st.sets(st.integers(min_value=-60, max_value=60)))
@settings(max_examples=200)
def test_bucket_touches_days_matches_reference(days, probe_days):
    bucket = Bucket(value="v", entries=entries_for(days))
    expected = any(e.day in probe_days for e in bucket.entries)
    # Twice: once column-less (reference fallback), once cached.
    assert bucket_touches_days(bucket, probe_days) == expected
    bucket_day_column(bucket)
    assert bucket_touches_days(bucket, probe_days) == expected


def test_column_cache_tracks_appends_incrementally():
    bucket = Bucket(value="v", entries=entries_for([1, 2, 3]))
    column, is_sorted = bucket_day_column(bucket)
    assert list(column) == [1, 2, 3] and is_sorted
    bucket.append_entries([Entry(10, 3, None), Entry(11, 5, None)])
    column, is_sorted = bucket_day_column(bucket)
    assert list(column) == [1, 2, 3, 3, 5] and is_sorted
    bucket.append_entries([Entry(12, 4, None)])  # breaks sortedness
    column, is_sorted = bucket_day_column(bucket)
    assert list(column) == [1, 2, 3, 3, 5, 4] and not is_sorted


def test_column_cache_rebuilds_after_external_mutation():
    bucket = Bucket(value="v", entries=entries_for([5, 1, 9]))
    bucket_day_column(bucket)
    # Direct list mutation bypasses the cache; length mismatch triggers
    # a rebuild instead of serving stale days.
    bucket.entries.append(Entry(99, -3, None))
    column, is_sorted = bucket_day_column(bucket)
    assert list(column) == [5, 1, 9, -3] and not is_sorted


def test_replace_entries_invalidates_column():
    bucket = Bucket(value="v", entries=entries_for([1, 2]))
    bucket_day_column(bucket)
    bucket.replace_entries(entries_for([7]))
    column, is_sorted = bucket_day_column(bucket)
    assert list(column) == [7] and is_sorted


def test_remove_days_keeps_select_consistent():
    bucket = Bucket(value="v", entries=entries_for([1, 2, 3, 2, 1]))
    bucket_day_column(bucket)
    assert bucket.remove_days({2}) == 2
    assert [e.day for e in bucket.select(0, 9)] == [1, 3, 1]


def test_day_column_is_int64_array():
    column = day_column(entries_for([3, 1, 2]))
    assert column.typecode == "q"
    assert column.itemsize == 8
    assert list(column) == [3, 1, 2]


def test_filter_entries_empty_input():
    assert filter_entries([], 0, 10) == []

"""Equivalence proofs for the day-column filter kernels.

Every kernel in `repro.index.kernels` must return exactly what the plain
comprehension returns — element-identical lists, same order — for sorted
columns (bisect path) and unsorted columns (bounds checks, then one pass
over entries and column together).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.index.bucket import Bucket
from repro.index.entry import Entry
from repro.index.kernels import (
    Run,
    Sweep,
    assemble,
    day_column,
    filter_entries_object,
    is_nondecreasing,
    select,
)
from tests.reference.delete import bucket_touches_days, remove_days

day_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=40)
ranges = st.tuples(
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-60, max_value=60),
)


def entries_for(days):
    return [Entry(i, day, i) for i, day in enumerate(days)]


def filter_entries(entries, t1, t2):
    """The kernel over any entry sequence: a throwaway run, as a list."""
    return list(select(Run.of(entries), t1, t2)[0])


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
    run = Run.of(entries)
    assert run.sorted and is_nondecreasing(run.days)
    found, (of, lo, hi) = select(run, t1, t2)  # a sorted run only slices
    assert of is run and found == run.entries[lo:hi] == tuple(expected)


@given(day_lists, ranges)
@settings(max_examples=200)
def test_bucket_run_cache_matches_reference(days, bounds):
    t1, t2 = bounds
    bucket = Bucket(value="v", entries=entries_for(days))
    expected = filter_entries_object(bucket.entries, t1, t2)
    found, part = select(bucket.run(), t1, t2)
    assert list(found) == expected
    if part is None:  # gathered: the range cuts into an unsorted column
        assert not bucket.run().sorted and len(expected) < len(days)
    else:
        run, lo, hi = part
        assert run is bucket.run() and found == run.entries[lo:hi]
    if len(expected) == len(days):
        assert found is bucket.run().entries  # the whole run, not a copy


@given(day_lists, ranges)
@example([], (0, 0))
@example([4], (4, 4))
@example([4, 4, 4], (3, 4))
@example([1, 2, 2, 5, 9], (2, 5))
@example([3, 1, 5, 1, 3], (1, 3))
@example([-3, -7, 0, -7], (-7, -3))
@settings(max_examples=300)
def test_sweep_and_its_cache_match_reference(days, bounds):
    t1, t2 = bounds
    entries = entries_for(days)
    sweep = Sweep.of(entries, nbytes=7)
    assert sweep.entries == tuple(entries)
    assert list(sweep.days) == days
    assert sweep.sorted == (days == sorted(days))
    assert (sweep.lo, sweep.hi) == ((min(days), max(days)) if days else (0, 0))
    assert sweep.distinct == tuple(sorted(set(days)))
    assert sweep.nbytes == 7
    entries.clear()  # the sweep is its own copy
    expected = filter_entries_object(sweep.entries, t1, t2)
    found, part = select(sweep, t1, t2)
    assert list(found) == expected
    # Its cache: a range holding one distinct day of an unsorted sweep is
    # that day's run, made once.
    if part is not None and part[0] is not sweep:
        assert part[0] is sweep.day_run(part[0].lo) and found is part[0].entries
        assert select(sweep, t1, t2)[0] is found


@given(day_lists, st.sets(st.integers(min_value=-60, max_value=60)))
@settings(max_examples=200)
def test_bucket_touches_days_matches_reference(days, probe_days):
    bucket = Bucket(value="v", entries=entries_for(days))
    expected = any(e.day in probe_days for e in bucket.entries)
    # Twice: once run-less (reference fallback), once on the run's column.
    assert bucket_touches_days(bucket, probe_days) == expected
    bucket.run()
    assert bucket_touches_days(bucket, probe_days) == expected


def column(bucket):
    run = bucket.run()
    assert run.entries == tuple(bucket.entries)
    return list(run.days), run.sorted


def test_appends_drop_the_run():
    bucket = Bucket(value="v", entries=entries_for([1, 2, 3]))
    first = bucket.run()
    assert column(bucket) == ([1, 2, 3], True) and bucket.run() is first
    bucket.append_entries([Entry(10, 3, None), Entry(11, 5, None)])
    assert bucket._run is None
    assert column(bucket) == ([1, 2, 3, 3, 5], True)
    bucket.append_entries([Entry(12, 4, None)])  # breaks sortedness
    assert column(bucket) == ([1, 2, 3, 3, 5, 4], False)
    assert list(first.days) == [1, 2, 3]  # a reader's run is still whole


def test_column_cache_rebuilds_after_external_mutation():
    bucket = Bucket(value="v", entries=entries_for([5, 1, 9]))
    bucket.run()
    # Direct list mutation bypasses the writers; length mismatch triggers
    # a rebuild instead of serving stale days.
    bucket.entries.append(Entry(99, -3, None))
    assert column(bucket) == ([5, 1, 9, -3], False)


def test_replace_entries_invalidates_column():
    bucket = Bucket(value="v", entries=entries_for([1, 2]))
    bucket.run()
    bucket.replace_entries(entries_for([7]))
    assert bucket._run is None
    assert column(bucket) == ([7], True)


def test_remove_days_keeps_select_consistent():
    bucket = Bucket(value="v", entries=entries_for([1, 2, 3, 2, 1]))
    bucket.run()
    assert remove_days(bucket, {2}) == 2
    assert [e.day for e in select(bucket.run(), 0, 9)[0]] == [1, 3, 1]


@given(st.lists(st.tuples(day_lists, ranges), max_size=4))
@settings(max_examples=200)
def test_assemble_joins_slices_and_keeps_their_parts(pieces):
    runs = [Run.of(entries_for(days)) for days, _ in pieces]
    hits = [select(run, *bounds) for run, (_, bounds) in zip(runs, pieces)]
    hits = [hit for hit in hits if hit[0]]
    entries, parts = assemble(hits)
    assert entries == tuple(e for found, _ in hits for e in found)
    if any(part is None for _, part in hits):
        assert parts is None
    else:
        assert parts == tuple(part for _, part in hits)
        assert entries == tuple(
            e for run, lo, hi in parts for e in run.entries[lo:hi]
        )
    if len(hits) == 1 and parts:
        assert entries is hits[0][0]  # one slice is the answer, uncopied


def test_day_column_is_int64_array():
    column = day_column(entries_for([3, 1, 2]))
    assert column.typecode == "q"
    assert column.itemsize == 8
    assert list(column) == [3, 1, 2]


def test_filter_entries_empty_input():
    assert filter_entries([], 0, 10) == []

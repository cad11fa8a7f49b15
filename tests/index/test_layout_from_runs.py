"""A packed layout laid from day runs knows its days: proven the same.

``build_index_from_store`` hands ``PackedLayout.of`` one grouping per
posting run, and the layout keeps the runs' days and their own
groupings and no copy of their entries: a view joins its value's
entries of each day and lays their day column in the same pass, a
one-day scan is the day's grouping laid out in slot order, and the whole
index in scan order is laid out only when asked for.  Three claims, over
random stores with empty days, a value repeated inside a record,
unorderable values and infos (the nightly ``charge-path-properties``
job runs them at 2 000 examples, ``--hypothesis-profile nightly``):

* the layout's offsets equal the ones the build made before, from the
  merged ``RecordStore.grouped_for`` dict (``tests.reference.packed``),
  field for field — directory order, offsets;
* every slot's view, every day's one-day run and the on-demand scan
  order equal the eager layout's (``EagerLayout``, which laid every
  entry into one tuple at build time): the same entries, in the same
  order;
* every slot's run equals ``kernels.Run.of`` of its entries: the same
  entries, day bytes, sortedness and bounds.
"""

import sys
from array import array
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.records import Record, RecordStore
from repro.index import kernels
from repro.index.bucket import PackedLayout
from repro.index.builder import build_index_from_store, build_packed_index
from repro.index.config import IndexConfig
from repro.index.entry import Entry
from repro.index.updates import clone_index
from repro.storage.disk import SimulatedDisk
from tests.reference.packed import EagerLayout, layout_of_grouped

ORDERABLE = ("a", "b", "c", "d", "e")
MIXED = ("c", "a", "b", 1, "d", 2, ("t", 1))
STORE_DAYS = range(1, 7)

records = st.lists(
    st.tuples(
        st.integers(1, 4),  # how many values the record has
        st.sampled_from((None, 0, 7, "x")),  # its info
    ),
    max_size=5,  # a day may be empty
)
shapes = st.fixed_dictionaries(
    {
        "pool": st.sampled_from((ORDERABLE, MIXED)),
        "days": st.lists(records, min_size=len(STORE_DAYS), max_size=len(STORE_DAYS)),
        "picks": st.lists(st.integers(0, 6), min_size=24, max_size=24),
        "built": st.sets(st.sampled_from(STORE_DAYS), min_size=1),
    }
)


def make_store(shape):
    """A store of ``shape``: values drawn from its pool by ``picks``, so a
    record may name one value twice."""
    pool = shape["pool"]
    picks = iter(shape["picks"] * 40)
    store = RecordStore()
    rid = 0
    for day, day_records in zip(STORE_DAYS, shape["days"]):
        batch = []
        for n_values, info in day_records:
            rid += 1
            values = tuple(pool[next(picks) % len(pool)] for _ in range(n_values))
            batch.append(Record(rid, day, values, nbytes=10, info=info))
        store.add_records(day, batch)
    return store


def fields(layout):
    return layout.values, layout.starts, list(layout.slots.items())


def fields_of(oracle):
    values, starts, _flat, slots = oracle
    return values, starts, list(slots.items())


def run_fields(run):
    return run.entries, run.days.tobytes(), run.sorted, run.lo, run.hi


HALF_SORTED = {
    "pool": MIXED,
    "days": [[(1, None)] * 5, [], [], [], [], []],
    "picks": [0, 1, 2, 3, 4] + [0] * 19,
    "built": {1, 2},
}
# A big bucket beside a small one: over the three days 'a' has 53
# entries, 'b' 7, and most records name 'a' more than once.
BIG_AND_SMALL = {
    "pool": ORDERABLE,
    "days": [[(4, 7)] * 5] * 6,
    "picks": ([0] * 7 + [1]) * 3,
    "built": {2, 3, 5},
}


@settings(max_examples=max(40, settings().max_examples), deadline=None)
@given(shapes)
@example(HALF_SORTED)  # 'c', 'a', 'b', 1, 'd': a sort that fails half-way
@example(BIG_AND_SMALL)
def test_a_layout_from_runs_is_the_merged_layout_and_knows_its_days(shape):
    store = make_store(shape)
    days = sorted(shape["built"])
    index = build_index_from_store(SimulatedDisk(), IndexConfig(), store, days)
    layout = index._layout
    assert fields(layout) == fields_of(layout_of_grouped(store.grouped_for(days)))
    assert layout.days == tuple(days) == tuple(run.day for run in index._runs)
    # The runs' own dicts, which the index holds anyway: no copy is kept.
    assert all(g is run.grouped for g, run in zip(layout.groupings, index._runs))
    assert len(layout.groupings) == len(index._runs)
    eager = EagerLayout.of(layout.groupings)
    for slot, view in enumerate(index.buckets()):
        assert view.entries == eager.entries(slot)
        run = view.run()
        assert run.entries is view.entries
        assert run_fields(run) == run_fields(kernels.Run.of(view.entries))
        assert sys.getsizeof(run.days) == sys.getsizeof(exact_column(view))
    for day in days:
        entries, column = eager.day_run(day)
        run = layout.day_run(day)
        assert run_fields(run) == (entries, column.tobytes(), True, day, day)
    assert layout._flat is None  # nothing above laid out the scan order
    assert layout.flat() == eager.flat and layout.flat() is layout.flat()


def exact_column(view):
    """``view``'s day column in an array sized to it exactly."""
    return array("q", [entry.day for entry in view.entries])


def test_a_views_day_column_holds_no_spare_slot():
    # A column grown in place keeps up to a sixteenth and 7 slots spare;
    # 'a' here has 53 entries over three days, 'b' 7.
    store = make_store(BIG_AND_SMALL)
    days = sorted(BIG_AND_SMALL["built"])
    index = build_index_from_store(SimulatedDisk(), IndexConfig(), store, days)
    for view in index.buckets():
        days_column = view.run().days
        assert days_column == exact_column(view)
        assert sys.getsizeof(days_column) == sys.getsizeof(exact_column(view))


def test_a_build_from_a_store_neither_merges_nor_reads_a_day():
    # A day: 'a' 11 entries (records name it twice or three times), 'b' one.
    store = RecordStore()
    for day in range(1, 7):
        store.add_records(
            day,
            [
                Record(10 * day + i, day, ("a", "a", "b" if i == 0 else "a"), nbytes=10)
                for i in range(4)
            ],
        )
    with mock.patch.object(
        RecordStore, "grouped_for", side_effect=AssertionError("grouped_for")
    ):
        index = build_index_from_store(SimulatedDisk(), IndexConfig(), store, [2, 4, 5])
    with mock.patch.object(kernels, "day_column", side_effect=AssertionError("day pass")):
        big, small = index.bucket("a").run(), index.bucket("b").run()
    assert (big.lo, big.hi, big.sorted) == (2, 5, True)
    assert list(big.days) == [2] * 11 + [4] * 11 + [5] * 11
    assert (small.lo, small.hi, small.sorted, list(small.days)) == (2, 5, True, [2, 4, 5])


def test_a_layout_without_days_reads_its_entries():
    grouped = {"a": [Entry(1, 3), Entry(2, 1)], "b": [Entry(3, 2)]}
    index = build_packed_index(SimulatedDisk(), IndexConfig(), grouped, [1, 2, 3])
    assert index._layout.days == () and len(index._layout.groupings) == 1
    assert index.bucket("a")._run is None  # no column until a reader asks
    run = index.bucket("a").run()
    assert (run.sorted, run.lo, run.hi, list(run.days)) == (False, 1, 3, [3, 1])


def test_a_one_grouping_layout_keeps_its_answers_when_the_caller_writes():
    """``clone_index`` hands ``PackedLayout.of`` a source's live bucket
    lists: the layout freezes them, so a later write to the source is
    not the copy's."""
    lists = {"a": [Entry(1, 3), Entry(2, 1)], "b": [Entry(3, 2)]}
    layout = PackedLayout.of([lists], IndexConfig().entry_size_bytes)
    want = EagerLayout.of([lists])
    lists["a"].append(Entry(4, 3))
    lists["b"].clear()
    lists["c"] = [Entry(5, 1)]
    assert layout.values == want.values and layout.starts == want.starts
    assert [layout.entries(v) for v in layout.values] == [
        want.entries(slot) for slot in range(len(want.values))
    ]
    assert layout.flat() == want.flat


def test_a_copy_of_a_laid_out_index_is_not_written_by_its_source():
    disk = SimulatedDisk()
    grouped = {"a": [Entry(1, 3), Entry(2, 1)], "b": [Entry(3, 2)]}
    index = build_packed_index(disk, IndexConfig(), grouped, [1, 2, 3])
    index.insert_postings({}, [])  # packed, laid out as buckets: live lists
    copy = clone_index(index)
    want = [(b.value, list(b.entries)) for b in copy.buckets()]
    index.bucket("a").entries.append(Entry(4, 2))  # a write behind its back
    index.delete_days([1])
    assert [(b.value, list(b.entries)) for b in copy.buckets()] == want
    assert copy.scan()[0] == [e for _, entries in want for e in entries]


"""A bucket stores its day column as run lengths: kept right by every writer.

``Bucket._lengths`` is ``(day, count, day, count, ...)``, the run-length
encoding of ``[e.day for e in bucket.entries]``, written by the same
statements that write the entries: a one-day insert adds a pair or
lengthens the last one without reading an entry, a multi-day or
unsorted insert encodes what it appends, the delete cuts whole pairs,
``_unpack`` takes the pairs from a layout's days and groupings (or
encodes a layout without days), and ``clone_index`` copies them.  A
write behind the writers' backs leaves pairs that miscount the entries,
which ``Bucket.lengths()`` encodes again before anything reads them.

The property drives random writer sequences over an index built from a
store (a layout with days), from one grouping (a layout without) or
empty, and after each step holds every bucket's pairs to the encoding
of its entries and its run (``Bucket.run()``, laid from the pairs) to
``kernels.Run.of`` of its entries, field for field
(``--hypothesis-profile nightly``: 2 000 examples).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.records import Record, RecordStore
from repro.index import kernels
from repro.index.bucket import Bucket
from repro.index.builder import build_index_from_store, build_packed_index
from repro.index.config import IndexConfig
from repro.index.constituent import ConstituentIndex
from repro.index.entry import Entry
from repro.index.updates import clone_index
from repro.storage.disk import SimulatedDisk

VALUES = "abcd"
DAYS = range(1, 10)

counts = st.dictionaries(st.sampled_from(VALUES), st.integers(1, 4), min_size=1)
steps = st.one_of(
    st.tuples(st.just("insert one day"), st.sampled_from(DAYS), counts),
    st.tuples(
        st.just("insert days"),
        st.dictionaries(
            st.sampled_from(VALUES),
            st.lists(st.sampled_from(DAYS), min_size=1, max_size=6),
            min_size=1,
        ),
    ),
    st.tuples(st.just("delete"), st.sets(st.sampled_from(DAYS), min_size=1, max_size=1)),
    st.tuples(st.just("delete"), st.sets(st.sampled_from(DAYS), min_size=2)),
    st.tuples(st.just("shrink"), st.sampled_from(VALUES)),
    st.tuples(st.just("clone")),
    st.tuples(st.just("read"), st.sets(st.sampled_from(VALUES))),
    st.tuples(
        st.just("behind"),
        st.sampled_from(VALUES),
        st.sampled_from(("pop", "append", "reverse")),
    ),
)
starts = st.sampled_from(("store", "grouping", "empty"))


def encoded(entries):
    """The run-length encoding of the entries' days, written out."""
    lengths = []
    for day in [e.day for e in entries]:
        if lengths and lengths[-2] == day:
            lengths[-1] += 1
        else:
            lengths += [day, 1]
    return tuple(lengths)


def run_fields(run):
    return run.entries, run.days.tobytes(), run.sorted, run.lo, run.hi


def start_index(start, ids):
    disk = SimulatedDisk()
    config = IndexConfig()
    if start == "empty":
        return ConstituentIndex.create_empty(disk, config)
    built = (1, 2, 3)
    if start == "grouping":
        # One grouping, days out of order inside a bucket.
        grouped = {
            value: [Entry(next(ids), day) for day in (3, 1, 1, 2)[: i + 1]]
            for i, value in enumerate(VALUES)
        }
        return build_packed_index(disk, config, grouped, built)
    store = RecordStore()
    for day in built:
        store.add_records(
            day,
            [
                Record(next(ids), day, tuple(VALUES[: day + i]), nbytes=10)
                for i in range(2)
            ],
        )
    return build_index_from_store(disk, config, store, built)


def check(index, tainted):
    """Every bucket's pairs and run against its entries."""
    for bucket in index.buckets():
        want = encoded(bucket.entries)
        if isinstance(bucket, Bucket):
            if bucket.value not in tainted:
                assert bucket._lengths == want  # stored by the writers
            assert bucket.lengths() == want and bucket._lengths == want
        got = bucket.run()
        assert run_fields(got) == run_fields(kernels.Run.of(bucket.entries))
    tainted.clear()


def apply(index, step, ids, tainted):
    """Run one step; return the index (a clone replaces it)."""
    kind, *args = step
    if kind == "insert one day":
        day, n = args
        index.insert_postings(
            {v: [Entry(next(ids), day) for _ in range(k)] for v, k in n.items()}, [day]
        )
    elif kind == "insert days":
        (grouped,) = args
        days = {d for ds in grouped.values() for d in ds}
        index.insert_postings(
            {v: [Entry(next(ids), d) for d in ds] for v, ds in grouped.items()}, days
        )
    elif kind == "delete":
        index.delete_days(args[0])
    elif kind == "shrink":
        bucket = index.bucket(args[0])
        if isinstance(bucket, Bucket) and not bucket.shared:
            bucket.capacity_entries *= 4  # sparse enough to shrink
            index._shrink_bucket(bucket)
    elif kind == "clone":
        return clone_index(index)
    elif kind == "read":
        for value in sorted(args[0]):
            bucket = index.bucket(value)
            if bucket is not None:
                bucket.run()
    elif kind == "behind":
        value, how = args
        bucket = index.bucket(value)
        if isinstance(bucket, Bucket) and bucket.entries and value not in tainted:
            # Each such write moves the count (the length rule, which two
            # writes that cancel would beat, as they would a run's), and
            # none outgrows the placement the delete reads back.
            if how == "append" and bucket.fits(1):
                bucket.entries.append(Entry(next(ids), bucket.entries[0].day + 1))
            elif how == "reverse":
                bucket.entries = bucket.entries[:0:-1]
            else:
                bucket.entries.pop(0)
            tainted.add(value)
    return index


@given(start=starts, sequence=st.lists(steps, max_size=12))
@example(
    start="store",
    sequence=[
        ("read", {"a", "b"}),
        ("insert one day", 4, {"a": 2, "d": 1}),
        ("delete", {1}),
        ("insert days", {"b": [6, 5, 5, 6]}),
        ("behind", "b", "pop"),
        ("insert one day", 7, {"b": 1}),
        ("clone",),
        ("delete", {2, 5}),
    ],
)
@example(
    start="grouping",
    sequence=[("insert one day", 1, {"d": 1}), ("delete", {2}), ("shrink", "d")],
)
@settings(max_examples=max(60, settings().max_examples), deadline=None)
def test_the_stored_pairs_are_the_entries_run_lengths_after_every_writer(start, sequence):
    ids = iter(range(10**6))
    index = start_index(start, ids)
    tainted = set()
    check(index, tainted)
    for step in sequence:
        index = apply(index, step, ids, tainted)
        if step[0] == "clone":
            tainted.clear()  # the clone copied pairs encoded afresh
        if step[0] != "behind":
            check(index, tainted)


def test_a_one_day_insert_reads_no_entry():
    class Unread(Entry):
        __slots__ = ()

        @property
        def day(self):
            raise AssertionError("an entry's day was read")

    index = ConstituentIndex.create_empty(SimulatedDisk(), IndexConfig())
    index.insert_postings({"a": [Unread(1, 4), Unread(2, 4)], "b": [Unread(3, 4)]}, [4])
    index.insert_postings({"a": [Unread(4, 5)]}, [5])
    index.insert_postings({"a": [Unread(5, 5)]}, [5])
    assert index.bucket("a")._lengths == (4, 2, 5, 2)
    assert index.bucket("b")._lengths == (4, 1)
    run = index.bucket("a").run()  # laid from the pairs: no day read
    assert (list(run.days), run.sorted, run.lo, run.hi) == ([4, 4, 5, 5], True, 4, 5)

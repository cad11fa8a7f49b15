"""The flat packed form: stored once, read as it lies, unpacked by a write.

``BuildIndex`` lays a packed constituent down as one
:class:`~repro.index.bucket.PackedLayout` and the constituent keeps that
until an op first writes to it.  Three claims.  *Equivalence*: a wave
whose packed indexes are flat and a twin built the old way — one
``Bucket`` per value from birth (``tests.reference.packed``) — agree after
every op on every answer, the clock, the I/O counters, every extent and
the snapshot bytes.  *Reads keep the form*: no probe, scan, walk, sweep,
snapshot or copy of a flat index lays a bucket out.  *Writes leave it
once*: the two ops that write buckets unpack on entry, to exactly the
state the eager build would have left them.
"""

import pytest

from repro.core.executor import ExecutionReport
from repro.core.persistence import wave_to_json
from repro.core.wave import WaveIndex
from repro.index import kernels
from repro.index.bucket import PackedBucket
from repro.index.btree import BPlusTreeDirectory
from repro.index.builder import build_packed_index
from repro.index.config import IndexConfig
from repro.index.entry import Entry
from repro.index.updates import UpdateTechnique, clone_index, packed_rewrite
from repro.storage.disk import SimulatedDisk
from tests.index.test_constituent import grouped
from tests.index.test_scan_sweep import N, SEVEN_SCHEMES, WINDOW, small_index, start
from tests.reference.packed import eager_world, pack_eager

LAST_DAY = WINDOW + N + 1


def is_flat(index):
    flat = index._layout is not None
    if flat:
        assert index.packed and len(index.directory) == 0
    return flat


def batch_for(day):
    lo = day - WINDOW + 1
    probes = [
        (v, t1, t2)
        for v in "abcz"
        for t1, t2 in [(lo, day), (day, day), (lo + 1, day - 2)]
    ]
    scans = [(lo, day), (day, day), (lo + 1, day - 2), (day + 3, day + 5)]
    return probes, scans


def extents(index):
    return sorted((e.offset, e.size) for e in index.referenced_extents())


def observe(wave, day):
    """Everything a caller can see of ``wave``, reads included."""
    disk = wave.disk
    probes, scans = batch_for(day)
    seen = [
        wave.probe_many(probes).results,
        wave.scan_many(scans).results,
        [wave.timed_index_probe(*spec) for spec in probes],
        [wave.timed_segment_scan(*spec) for spec in scans],
    ]
    for name in sorted(wave.bindings):
        index = wave.bindings[name]
        seen.append(
            (
                name,
                index.packed,
                sorted(index.time_set),
                index.entry_count,
                index.used_bytes,
                index.allocated_bytes,
                extents(index),
                [
                    (b.value, tuple(b.entries), b.shared, b.capacity_entries,
                     index._bucket_position(b)[1])
                    for b in index.buckets()
                ],
                tuple(index.all_entries()),
                index.probe("a"),
            )
        )
    seen += [
        disk.clock, disk.stats.snapshot(), disk.live_bytes,
        disk.high_water_bytes, wave_to_json(wave),
    ]
    return seen


def run_scheme(scheme_cls, technique, *, flat_expected):
    wave, executor, scheme = start(scheme_cls, technique)
    trace = []
    flat_seen = 0

    def run(plan, day):
        nonlocal flat_seen
        for op in plan:
            executor.execute_op(op, ExecutionReport())
            before = {n for n, ix in wave.bindings.items() if is_flat(ix)}
            trace.append((repr(op), observe(wave, day)))
            # observe() is all reads: whatever was flat still is.
            assert {n for n, ix in wave.bindings.items() if is_flat(ix)} == before
            flat_seen += len(before)

    run(scheme.start_ops(), WINDOW)
    for day in range(WINDOW + 1, LAST_DAY + 1):
        run(scheme.transition_ops(day), day)
    assert bool(flat_seen) == flat_expected
    return trace


@pytest.mark.parametrize("technique", list(UpdateTechnique), ids=lambda t: t.value)
@pytest.mark.parametrize("scheme_cls", SEVEN_SCHEMES, ids=lambda c: c.name)
def test_flat_waves_identical_to_eagerly_packed_twin(scheme_cls, technique):
    with eager_world():
        want = run_scheme(scheme_cls, technique, flat_expected=False)
    got = run_scheme(scheme_cls, technique, flat_expected=True)
    assert len(got) == len(want)
    for (op, mine), (_, theirs) in zip(got, want):
        assert mine == theirs, op


# ----------------------------------------------------------------------
# Reads keep the form
# ----------------------------------------------------------------------

SMALL = grouped(
    ("a", Entry(1, 1)), ("b", Entry(1, 1)), ("a", Entry(2, 2)), ("c", Entry(3, 2))
)  # what tests.index.test_scan_sweep.small_index holds


def eager_small_index(disk, config=IndexConfig()):
    return pack_eager(disk, config, [SMALL], [1, 2], name="I", source_bytes=None)


READS = {
    "probe": lambda ix: ix.probe("a"),
    "probe miss": lambda ix: ix.probe("z"),
    "timed_probe": lambda ix: kernels.select(
        ix.probe_batch_buckets(["a"])[0]["a"][0].run(), 1, 1
    ),
    "probe_batch_buckets": lambda ix: ix.probe_batch_buckets(["c", "a", "z", "a"]),
    "scan": lambda ix: ix.scan(),
    "timed_scan": lambda ix: (ix.charge_scan(), kernels.select(ix.sweep(), 2, 2)),
    "sweep": lambda ix: ix.sweep().day_run(1),
    "buckets": lambda ix: [b.run() for b in ix.buckets()],
    "bucket": lambda ix: ix.bucket("b").entries,
    "all_entries": lambda ix: list(ix.all_entries()),
    "sizes": lambda ix: (ix.entry_count, ix.used_bytes, ix.allocated_bytes),
    "referenced_extents": lambda ix: list(ix.referenced_extents()),
    "clone_index": lambda ix: clone_index(ix).drop(),
    "packed_rewrite": lambda ix: packed_rewrite(
        ix, grouped(("a", Entry(9, 3))), [3], [1]
    ).drop(),
}


@pytest.mark.parametrize("read", READS, ids=str)
def test_no_read_unpacks_a_flat_index(read):
    index = small_index(SimulatedDisk())
    assert is_flat(index)
    READS[read](index)
    READS[read](index)
    assert is_flat(index)


def test_snapshots_and_wave_reads_keep_the_form():
    wave = WaveIndex(SimulatedDisk(), IndexConfig(), 1)
    wave.bind("I1", small_index(wave.disk))
    wave_to_json(wave)
    wave.probe_many([("a", 1, 2), ("b", 1, 1)])
    wave.scan_many([(1, 2), (2, 2)])
    wave.timed_index_probe("a", 1, 2)
    wave.timed_segment_scan(1, 1)
    assert is_flat(wave.get("I1"))


def test_views_are_made_once_and_read_like_shared_buckets():
    disk = SimulatedDisk()
    index = small_index(disk)
    eager = eager_small_index(SimulatedDisk())
    views = list(index.buckets())
    assert all(type(view) is PackedBucket for view in views)
    assert all(a is b for a, b in zip(views, index.buckets()))
    assert index.bucket("a") is views[0] and index.bucket("z") is None
    found, _ = index.probe_batch_buckets(["a", "c"])
    assert found["a"][0] is views[0] and found["c"][0] is views[2]
    for view, bucket in zip(views, eager.buckets()):
        assert (view.value, list(view.entries)) == (bucket.value, bucket.entries)
        assert (view.shared, view.live_count, view.capacity_entries) == (
            bucket.shared, bucket.live_count, bucket.capacity_entries
        )
        assert view.offset_in_extent == bucket.offset_in_extent
        assert index._bucket_position(view)[0] is index._shared_extent
        assert view.run() is view.run() and view.run().entries is view.entries


# ----------------------------------------------------------------------
# Writes leave it once
# ----------------------------------------------------------------------


def laid_out(index):
    return [
        (value, b.value, b.entries, b.shared, b.capacity_entries, b.offset_in_extent,
         b.extent is index._shared_extent)
        for value, b in index.directory.items()
    ], index._shared_live_buckets, index.packed, index.time_set


WRITES = {
    "insert": lambda ix: ix.insert_postings(
        grouped(("a", Entry(4, 3)), ("d", Entry(4, 3))), [3]
    ),
    "insert nothing": lambda ix: ix.insert_postings({}, []),
    "delete": lambda ix: ix.delete_days([1]),
    "delete nothing": lambda ix: ix.delete_days([]),
    "delete absent day": lambda ix: ix.delete_days([7]),
}


@pytest.mark.parametrize("write", WRITES, ids=str)
@pytest.mark.parametrize(
    "config",
    [IndexConfig(), IndexConfig(directory_factory=BPlusTreeDirectory)],
    ids=["hash", "btree"],
)
def test_a_write_finds_what_an_eager_build_would_have_left(write, config):
    disk, twin = SimulatedDisk(), SimulatedDisk()
    index = build_packed_index(disk, config, SMALL, [1, 2])
    eager = eager_small_index(twin, config)
    assert (disk.clock, disk.stats.snapshot()) == (twin.clock, twin.stats.snapshot())
    assert is_flat(index) and not is_flat(eager)
    assert WRITES[write](index) == WRITES[write](eager)
    assert not is_flat(index) and index._views == []
    assert laid_out(index) == laid_out(eager)
    assert extents(index) == extents(eager)
    assert (disk.clock, disk.stats.snapshot()) == (twin.clock, twin.stats.snapshot())
    assert index.scan() == eager.scan()


def test_unpacking_hands_each_bucket_the_run_its_view_built():
    index = small_index(SimulatedDisk())
    run = index.bucket("a").run()
    index.probe("c")  # a view with no run
    index.delete_days([7])
    assert index.bucket("a")._run is run
    assert index.bucket("b")._run is None and index.bucket("c")._run is None
    index.delete_days([1])
    assert index.bucket("a")._run is None  # written: dropped as ever


def test_a_view_held_across_a_write_still_reads_what_it_was_cut_from():
    index = small_index(SimulatedDisk())
    view = index.bucket("a")
    held = view.run()
    index.insert_postings(grouped(("a", Entry(4, 3))), [3])
    assert [e.record_id for e in view.entries] == [1, 2]
    assert held.entries is view.entries
    assert [e.record_id for e in index.bucket("a").entries] == [1, 2, 4]


def test_drop_of_a_flat_index_frees_its_one_extent():
    disk = SimulatedDisk()
    index = small_index(disk)
    index.buckets()
    assert disk.live_extents == 1
    index.drop()
    assert disk.live_extents == 0 and disk.live_bytes == 0
    assert index._layout is None and index._views == []


def test_a_copy_of_a_flat_index_shares_its_layout_and_nothing_else():
    disk, twin = SimulatedDisk(), SimulatedDisk()
    index, eager = small_index(disk), eager_small_index(twin)
    for bucket in index.buckets():
        bucket.run()
    index.sweep()
    with eager_world():
        want = clone_index(eager, name="copy")
    got = clone_index(index, name="copy")
    assert (disk.clock, disk.stats.snapshot()) == (twin.clock, twin.stats.snapshot())
    assert is_flat(got) and got._layout is index._layout
    assert got._views == [None] * 3 and got._sweep is None
    assert got._shared_extent is not index._shared_extent
    assert extents(got) == extents(want) and got.scan() == want.scan()
    # The source goes its own way; the copy is untouched.
    index.delete_days([1])
    assert is_flat(got) and [e.record_id for e in got.scan()[0]] == [1, 2, 1, 3]


def test_a_packed_index_already_laid_out_as_buckets_copies_flat():
    disk, twin = SimulatedDisk(), SimulatedDisk()
    index, eager = small_index(disk), eager_small_index(twin)
    index.insert_postings({}, [])  # wrote nothing: still packed, no longer flat
    assert index.packed and not is_flat(index)
    with eager_world():
        want = clone_index(eager)
    got = clone_index(index)
    assert is_flat(got) and got.packed
    assert (disk.clock, disk.stats.snapshot()) == (twin.clock, twin.stats.snapshot())
    assert got.scan() == want.scan()
    assert [(b.value, b.offset_in_extent) for b in got.buckets()] == [
        (b.value, b.offset_in_extent) for b in want.buckets()
    ]


def test_unorderable_values_keep_their_arrival_order():
    postings = {"b": [Entry(1, 1)], 3: [Entry(2, 1), Entry(3, 1)], "a": [Entry(4, 1)]}
    index = build_packed_index(SimulatedDisk(), IndexConfig(), postings, [1])
    eager = pack_eager(
        SimulatedDisk(), IndexConfig(), [postings], [1], name="I", source_bytes=None
    )
    assert [(b.value, b.offset_in_extent) for b in index.buckets()] == [
        (b.value, b.offset_in_extent) for b in eager.buckets()
    ] == [("b", 0), (3, 16), ("a", 48)]
    index.delete_days([9])
    assert laid_out(index) == laid_out(eager)


def test_values_whose_sort_fails_half_way_keep_their_arrival_order():
    # ``list.sort`` raising on 1 < 'b' has already moved 'c' past 'a', 'b'.
    postings = {v: [Entry(i, 1)] for i, v in enumerate(["c", "a", "b", 1, "d"])}
    index = build_packed_index(SimulatedDisk(), IndexConfig(), postings, [1])
    assert [b.value for b in index.buckets()] == ["c", "a", "b", 1, "d"]

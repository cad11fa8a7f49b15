"""``allocated_bytes`` is a counter, and ``delete_days`` one pass: both proven.

A :class:`~repro.index.constituent.ConstituentIndex` no longer walks its
directory to say how many bytes it pins: ``_private_bytes`` moves beside
the five statements that take or give back a private bucket extent.
Three claims.  *The counter is the recount*: after every op of every
scheme under every technique — and after an op that died on any of its
I/Os — it equals a walk over ``referenced_extents()``
(``check_wave_invariants`` makes the same comparison wherever it runs).
*One pass is two passes*: ``delete_days`` builds each bucket's kept list
once and compares lengths; the ask-then-compact walk it replaced
(``tests.reference.delete``) leaves a twin with the same entries, extents,
clock and I/O counters.  *A batch is located once*:
``probe_batch_buckets`` reads what the per-bucket sort-then-read did, in
the same order with the same seek sharing.
"""

import pytest

from repro.core.executor import ExecutionReport
from repro.core.invariants import InvariantViolation, check_wave_invariants
from repro.errors import SimulatedCrash
from repro.index.btree import BPlusTreeDirectory
from repro.index.builder import build_packed_index
from repro.index.config import IndexConfig
from repro.index.constituent import ConstituentIndex
from repro.index.entry import Entry
from repro.index.updates import UpdateTechnique, clone_index
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import CrashPoint, FaultInjector, FaultyDisk
from repro.storage.pagecache import PageCache
from tests.index.test_scan_sweep import LAST_DAY, SEVEN_SCHEMES, WINDOW, start
from tests.reference.delete import delete_days_two_pass, recounted_bytes

CONFIGS = {
    "hash": IndexConfig,
    "btree": lambda: IndexConfig(
        directory_factory=lambda: BPlusTreeDirectory(order=4)
    ),
}


def assert_counters_are_recounts(wave):
    for name, index in wave.bindings.items():
        assert index.allocated_bytes == recounted_bytes(index), name


# ----------------------------------------------------------------------
# The counter
# ----------------------------------------------------------------------


@pytest.mark.parametrize("technique", list(UpdateTechnique), ids=lambda t: t.value)
@pytest.mark.parametrize("scheme_cls", SEVEN_SCHEMES, ids=lambda c: c.name)
def test_counter_is_the_recount_after_every_op(scheme_cls, technique):
    wave, executor, scheme = start(scheme_cls, technique)
    private_seen = 0
    for day in range(WINDOW, LAST_DAY + 1):
        plan = scheme.start_ops() if day == WINDOW else scheme.transition_ops(day)
        for op in plan:
            executor.execute_op(op, ExecutionReport())
            assert_counters_are_recounts(wave)
            private_seen += sum(ix._private_bytes for ix in wave.bindings.values())
        check_wave_invariants(wave, scheme)
        assert wave.total_bytes == wave.disk.live_bytes
    # REINDEX only ever builds packed; every other scheme updated in place
    # must have owned private extents, or the sweep proved nothing.
    if technique is UpdateTechnique.IN_PLACE and scheme_cls.name != "REINDEX":
        assert private_seen > 0


def mixed_index(disk, config):
    """Shared buckets, evicted ones, grown ones and fresh private ones."""
    index = build_packed_index(
        disk,
        config,
        {
            "a": [Entry(i, 1 + i % 3) for i in range(9)],
            "b": [Entry(20, 1), Entry(21, 2)],
            "c": [Entry(30, 3)],
            "d": [Entry(40 + i, 2) for i in range(5)],
        },
        [1, 2, 3],
    )
    index.insert_postings(
        {"a": [Entry(50, 4)], "e": [Entry(60 + i, 4) for i in range(20)]}, [4]
    )
    index.insert_postings({"e": [Entry(90 + i, 5) for i in range(30)]}, [5])
    return index


@pytest.mark.parametrize("config", CONFIGS.values(), ids=list(CONFIGS))
def test_counter_follows_every_site_that_moves_an_extent(config):
    disk = SimulatedDisk()
    index = ConstituentIndex.create_empty(disk, config())
    assert index.allocated_bytes == 0

    index = mixed_index(disk, config())  # new, evicted, overflowed
    assert index._private_bytes > 0 and index._shared_extent is not None
    assert index.allocated_bytes == recounted_bytes(index) == disk.live_bytes

    clone = clone_index(index)
    assert clone.allocated_bytes == recounted_bytes(clone) == clone._private_bytes
    assert clone._shared_extent is None  # every byte of it is private
    assert disk.live_bytes == index.allocated_bytes + clone.allocated_bytes

    index.delete_days([5, 4])  # shrinks "e", retires nothing shared
    assert index.allocated_bytes == recounted_bytes(index)
    index.delete_days([1, 2, 3])  # retires the rest, frees the shared extent
    assert index.allocated_bytes == recounted_bytes(index) == 0
    assert disk.live_bytes == clone.allocated_bytes

    clone.drop()
    assert clone._private_bytes == 0 and disk.live_bytes == 0


@pytest.mark.parametrize("op", ["insert", "delete"])
def test_counter_is_the_recount_wherever_an_op_dies(op):
    # An op that crashes on its n-th I/O leaves the directory half-updated;
    # the counter must describe exactly that half.
    died = 0
    for after_ios in range(0, 200):
        disk = FaultyDisk(page_cache=PageCache(2 * 4096), injector=FaultInjector())
        index = mixed_index(disk, IndexConfig())
        disk.injector.arm_crash(CrashPoint(after_ios=after_ios))
        try:
            if op == "insert":
                index.insert_postings(
                    {
                        "a": [Entry(200 + i, 6) for i in range(40)],  # overflow
                        "b": [Entry(300, 6)],  # eviction
                        "z": [Entry(400, 6)],  # new bucket
                        "e": [Entry(500, 6)],  # fits
                    },
                    [6],
                )
            else:
                index.delete_days([1, 4, 5])  # compactions, a retire, a shrink
        except SimulatedCrash:
            died += 1
            assert index.allocated_bytes == recounted_bytes(index), after_ios
            # Whatever the op allocated and never linked is the only orphan.
            assert disk.live_bytes >= index.allocated_bytes
        else:
            assert index.allocated_bytes == recounted_bytes(index) == disk.live_bytes
            break
    assert died >= 4


def test_invariants_name_a_drifted_counter():
    wave, executor, scheme = start(SEVEN_SCHEMES[0], UpdateTechnique.IN_PLACE)
    executor.execute(scheme.start_ops())
    executor.execute(scheme.transition_ops(WINDOW + 1))
    check_wave_invariants(wave, scheme)
    name, index = next(
        (n, ix) for n, ix in wave.bindings.items() if ix._private_bytes
    )
    index._private_bytes += 16
    with pytest.raises(InvariantViolation, match=f"byte-counter drift: binding {name}"):
        check_wave_invariants(wave, scheme)


# ----------------------------------------------------------------------
# One pass == two passes
# ----------------------------------------------------------------------


def state(index, seconds):
    disk = index.disk
    cache = disk.page_cache
    return (
        seconds,
        disk.clock,
        disk.snapshot(),
        disk.live_bytes,
        disk.high_water_bytes,
        None if cache is None else (cache.snapshot(), len(cache._pages)),
        index.packed,
        sorted(index.time_set),
        index.allocated_bytes,
        recounted_bytes(index),
        sorted((e.offset, e.size) for e in index.referenced_extents()),
        [
            (b.value, list(b.entries), b.shared, b.capacity_entries,
             b.offset_in_extent, b._run is None)
            for b in index.buckets()
        ],
    )


DAY_SETS = {
    "touches-nothing": [9],
    "empty": [],
    "one-day": [2],
    "empties-buckets": [1, 2, 3],
    "shrinks": [5, 4],
    "everything": [1, 2, 3, 4, 5],
}


@pytest.mark.parametrize("cached", [False, True], ids=["cacheless", "page-cache"])
@pytest.mark.parametrize("days", DAY_SETS.values(), ids=list(DAY_SETS))
@pytest.mark.parametrize("config", CONFIGS.values(), ids=list(CONFIGS))
def test_single_pass_delete_equals_two_pass_reference(config, days, cached):
    def build():
        cache = PageCache(3 * 64, 64) if cached else None
        index = mixed_index(SimulatedDisk(page_cache=cache), config())
        index.bucket("a").run()  # the two-pass walk pruned on a current run
        return index

    got, want = build(), build()
    assert state(got, None) == state(want, None)
    got_s = got.delete_days(days)
    want_s = delete_days_two_pass(want, days)
    assert state(got, got_s) == state(want, want_s)
    # And the packed form: unpacked on entry, even by a delete of nothing.
    for index in (got, want):
        assert index._layout is None


@pytest.mark.parametrize("technique", [UpdateTechnique.IN_PLACE, UpdateTechnique.SIMPLE_SHADOW],
                         ids=lambda t: t.value)
@pytest.mark.parametrize("scheme_cls", SEVEN_SCHEMES, ids=lambda c: c.name)
def test_schemes_delete_the_same_either_way(scheme_cls, technique, monkeypatch):
    def run(patched):
        with monkeypatch.context() as patch:
            if patched:
                patch.setattr(ConstituentIndex, "delete_days", delete_days_two_pass)
            wave, executor, scheme = start(scheme_cls, technique)
            executor.execute(scheme.start_ops())
            for day in range(WINDOW + 1, LAST_DAY + 1):
                executor.execute(scheme.transition_ops(day))
            return [state(wave.bindings[name], None) for name in sorted(wave.bindings)]

    assert run(patched=False) == run(patched=True)


# ----------------------------------------------------------------------
# A batch is located once
# ----------------------------------------------------------------------


def probe_batch_by_position(index, values):
    """``probe_batch_buckets`` as it was: sort buckets by a position call."""
    touches = [b for b in map(index.bucket, dict.fromkeys(values)) if b is not None]
    touches.sort(
        key=lambda b: (
            index._bucket_position(b)[0].offset,
            index._bucket_position(b)[1],
        )
    )
    found = {}
    previous_extent_id = None
    for bucket in touches:
        extent, offset = index._bucket_position(bucket)
        seeks = 0.0 if extent.extent_id == previous_extent_id else 1.0
        seconds = index.disk.read(
            extent,
            bucket.live_count * index.config.entry_size_bytes,
            seeks=seeks,
            offset=offset,
        )
        previous_extent_id = extent.extent_id
        found[bucket.value] = (bucket, seconds)
    return found, len(touches)


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "unpacked"])
@pytest.mark.parametrize("config", CONFIGS.values(), ids=list(CONFIGS))
def test_batch_probe_locates_each_bucket_once(config, flat):
    def build():
        disk = SimulatedDisk(page_cache=PageCache(3 * 64, 64))
        if not flat:
            return mixed_index(disk, config())
        return build_packed_index(
            disk, config(), {v: [Entry(i, 1) for i in range(n)]
                             for v, n in [("a", 9), ("b", 2), ("c", 1), ("d", 30)]}, [1]
        )

    batches = [list("edcba"), list("azqa"), ["q"], [], list("bdbd"), list("eeca")]
    got, want = build(), build()
    for values in batches:
        found, n = got.probe_batch_buckets(values)
        ref, ref_n = probe_batch_by_position(want, values)
        assert n == ref_n and list(found) == list(ref)  # same read order
        assert [(v, tuple(b.entries), s) for v, (b, s) in found.items()] == [
            (v, tuple(b.entries), s) for v, (b, s) in ref.items()
        ]
        assert state(got, None)[:6] == state(want, None)[:6]
    assert (got._layout is not None) == flat

"""Bucket runs: encode a bucket once per mutation, change nothing observable.

Three claims.  *Equivalence*: a wave whose probes are assembled from
slices of each bucket's cached :class:`~repro.index.kernels.Run` answers,
charges and counts exactly as a twin served by the entry-by-entry oracle
(``tests.reference.batch.probe_many_object``, which reads
``bucket.entries`` and never a run) — before and after every transition,
cold and warm.  *Block identity*: whatever path
:func:`repro.serve.protocol.result_to_wire` takes — joining the runs'
cached record bytes or encoding the entries — the block it puts on the
wire is ``codec.encode_entries_object(result.entries)`` byte for byte.
*Lifetime*: a run is the bucket's contents at the moment it was built, so
it lives from the first read after a mutation to the next writer and not
one step longer, and a reader that still holds one keeps a whole one.
"""

import sys
import threading

import pytest

from repro.core.executor import ExecutionReport
from repro.core.queries import ProbeResult
from repro.core.schemes import DelScheme
from repro.core.wave import WaveIndex
from repro.errors import FaultError
from repro.index import codec, kernels
from repro.index.bucket import Bucket
from repro.index.entry import Entry
from repro.index.updates import UpdateTechnique
from repro.serve import protocol
from repro.storage.faults import FaultInjector, FaultyDisk
from tests.index.test_constituent import grouped
from tests.index.test_scan_sweep import (
    LAST_DAY,
    SEVEN_SCHEMES,
    WINDOW,
    N,
    small_index,
    start,
)
from tests.reference.batch import probe_many_object
from tests.reference.delete import remove_days

def batch_for(day):
    """Whole window, newest day, a partial range, a range outside the
    window, an absent value, and duplicates of two of them."""
    lo = day - WINDOW + 1
    return [
        ("a", lo, day),
        ("b", day, day),
        ("a", lo + 1, day - 2),
        ("c", day + 3, day + 5),
        ("z", lo, day),
        ("b", day, day),
        ("a", lo, day),
        ("d", lo, day),
    ]


def records_of(entries):
    return codec.encode_entries_object(entries)[codec.encoded_size(0) :]


def wire_block(result):
    return protocol.result_to_wire(result)["entries"]


def assert_block_is_the_reference(result):
    block = wire_block(result)
    assert block == codec.encode_entries_object(result.entries)
    assert codec.read_block(block) == result.entries
    return block


def assert_runs_describe_their_buckets(wave):
    """Every run a bucket holds is the bucket's contents, records too."""
    for index in wave.bindings.values():
        for bucket in index.buckets():
            run = bucket._run
            if run is None:
                continue
            assert run.entries == tuple(bucket.entries)
            assert list(run.days) == [e.day for e in bucket.entries]
            assert run.sorted == (list(run.days) == sorted(run.days))
            if run.entries:
                assert (run.lo, run.hi) == (min(run.days), max(run.days))
            assert bucket.run() is run
            assert run.records() == records_of(run.entries)


# ----------------------------------------------------------------------
# Equivalence and block identity
# ----------------------------------------------------------------------


def serve_days(probe_many, scheme_cls, technique, *, check_runs):
    """Two wave cycles, a cold and a warm batch at every day boundary."""
    wave, executor, scheme = start(scheme_cls, technique)
    disk = wave.disk
    seen = []

    def run(plan, day):
        for op in plan:
            executor.execute_op(op, ExecutionReport())
            if check_runs:
                assert_runs_describe_their_buckets(wave)
        for _ in ("cold", "warm"):
            batch = probe_many(wave, batch_for(day))
            if check_runs:
                for result in batch.results:
                    assert_block_is_the_reference(result)
            seen.append(
                (day, batch.results, batch.summary, disk.clock, disk.stats.snapshot())
            )

    run(scheme.start_ops(), WINDOW)
    for day in range(WINDOW + 1, LAST_DAY + 1):
        run(scheme.transition_ops(day), day)
    return seen


@pytest.mark.parametrize("technique", list(UpdateTechnique), ids=lambda t: t.value)
@pytest.mark.parametrize("scheme_cls", SEVEN_SCHEMES, ids=lambda c: c.name)
def test_probes_and_blocks_identical_to_entry_by_entry_twin(scheme_cls, technique):
    got = serve_days(WaveIndex.probe_many, scheme_cls, technique, check_runs=True)
    want = serve_days(probe_many_object, scheme_cls, technique, check_runs=False)
    assert got == want
    # The suite is not vacuous: answers were non-empty and came with parts.
    results = [r for _, batch, *_ in got for r in batch]
    assert any(len(r.entries) > 1 and r.parts and len(r.parts) > 1 for r in results)
    assert any(r.entries and r.parts and len(r.parts) == 1 for r in results)


def test_a_whole_bucket_answer_is_the_runs_own_tuple():
    wave, executor, scheme = start(DelScheme, UpdateTechnique.IN_PLACE)
    executor.execute(scheme.start_ops())
    index = wave.get("I1")
    value = next(index.buckets()).value
    lo, hi = min(index.time_set), max(index.time_set)
    (result,) = wave.probe_many([(value, lo, hi)]).results
    run = index.bucket(value).run()
    assert result.entries is run.entries
    assert result.parts == ((run, 0, len(run.entries)),)


def test_parts_are_invisible_to_equality_hash_and_repr():
    wave, executor, scheme = start(DelScheme, UpdateTechnique.IN_PLACE)
    executor.execute(scheme.start_ops())
    (result,) = wave.probe_many([("a", 1, WINDOW)]).results
    assert result.parts
    bare = ProbeResult(
        tuple(result.entries), result.seconds, result.indexes_probed,
        result.covered_days, result.missing_days,
    )
    assert bare.parts is None
    assert result == bare and hash(result) == hash(bare)
    assert repr(result) == repr(bare) and "parts" not in repr(result)


# ----------------------------------------------------------------------
# Lifetime
# ----------------------------------------------------------------------


def test_run_lives_from_first_read_to_next_writer():
    bucket = Bucket(value="v", entries=[Entry(1, 1), Entry(2, 2)])
    assert bucket._run is None  # nothing read yet
    first = bucket.run()
    assert bucket.run() is first and bucket.select(1, 2) == bucket.entries
    assert bucket._run is first

    bucket.append_entries([Entry(3, 3)])
    assert bucket._run is None
    second = bucket.run()
    assert second is not first and len(second.entries) == 3

    bucket.replace_entries([Entry(9, 9)])
    assert bucket._run is None
    third = bucket.run()

    assert remove_days(bucket, {9}) == 1
    assert bucket._run is None and bucket.run().entries == ()
    # Every reader's copy is still whole.
    assert [e.record_id for e in first.entries] == [1, 2]
    assert [e.record_id for e in second.entries] == [1, 2, 3]
    assert third.records() == records_of([Entry(9, 9)])


def test_run_is_identical_across_probes_of_an_unmutated_wave():
    wave, executor, scheme = start(DelScheme, UpdateTechnique.IN_PLACE)
    executor.execute(scheme.start_ops())
    wave.probe_many(batch_for(WINDOW))
    held = {
        (name, bucket.value): bucket._run
        for name, index in wave.bindings.items()
        for bucket in index.buckets()
        if bucket._run is not None
    }
    assert held
    wave.probe_many(batch_for(WINDOW) + [("a", 2, 3)])
    wave.timed_index_probe("a", 1, WINDOW)
    for (name, value), run in held.items():
        assert wave.get(name).bucket(value)._run is run

    # One in-place turn: what it wrote to lost its run, the rest kept it.
    before = {
        key: tuple(wave.get(key[0]).bucket(key[1]).entries) for key in held
    }
    executor.execute(scheme.transition_ops(WINDOW + 1))
    changed = kept = 0
    for (name, value), run in held.items():
        index = wave.get_optional(name)
        bucket = index and index.bucket(value)
        if bucket is None:
            continue
        if tuple(bucket.entries) == before[name, value]:
            kept += 1
            assert bucket._run is run
        else:
            changed += 1
            assert bucket._run is None
    assert changed and kept


@pytest.mark.parametrize("op", ["insert", "delete"])
def test_op_aborted_by_a_fault_leaves_no_stale_run(op):
    injector = FaultInjector()
    index = small_index(FaultyDisk(injector=injector))
    for bucket in index.buckets():
        bucket.run()
    # Dies after its first bucket: the contents are half-changed.
    injector.fail_device_after_ios = injector.stats.ios + 2
    with pytest.raises(FaultError):
        if op == "insert":
            index.insert_postings(
                grouped(("a", Entry(5, 3)), ("b", Entry(5, 3)), ("c", Entry(5, 3))), [3]
            )
        else:
            index.delete_days([1])
    touched = 0
    for bucket in index.buckets():
        run = bucket._run
        if run is None:
            touched += 1
        else:  # never reached by the op: its run still describes it
            assert run.entries == tuple(bucket.entries)
    assert touched


# ----------------------------------------------------------------------
# Paths around the cached bytes
# ----------------------------------------------------------------------


def probe_one(entries, t1, t2):
    """A one-constituent wave answer over a bucket holding ``entries``."""
    run = Bucket(value="v", entries=list(entries)).run()
    found, part = kernels.select(run, t1, t2)
    answer, parts = kernels.assemble([(found, part)] if found else [])
    return ProbeResult(answer, 0.5, 1, frozenset({t1}), frozenset(), parts)


@pytest.mark.parametrize(
    "info", ["héllo", 2.5, 2**70, -(2**63) - 1], ids=["str", "float", "big", "neg-big"]
)
def test_infos_the_columns_cannot_hold_take_the_encode_path(info):
    entries = [Entry(1, 1, None), Entry(2, 2, info), Entry(3, 3, 7)]
    result = probe_one(entries, 1, 3)
    assert result.parts[0][0].records() is None  # no record run to cut from
    block = assert_block_is_the_reference(result)
    got = codec.read_block(block)
    assert type(got) is tuple and got == tuple(entries)
    assert [type(e.info) for e in got] == [type(e.info) for e in entries]
    # A slice that leaves the awkward entry out is encoded all the same.
    assert_block_is_the_reference(probe_one(entries, 3, 3))


def test_int_and_none_infos_are_cut_from_the_record_run():
    entries = [Entry(1, 1, None), Entry(2, 2, 0), Entry(3, 3, -5), Entry(4, 3, None)]
    for t1, t2 in [(1, 3), (2, 3), (3, 3), (2, 2)]:
        result = probe_one(entries, t1, t2)
        assert result.parts[0][0].records() is not None
        block = assert_block_is_the_reference(result)
        got = list(codec.read_block(block))
        assert [e.info for e in got] == [e.info for e in result.entries]  # 0 is not None


def test_mask_gather_over_an_unsorted_column_falls_back():
    entries = [Entry(i, day, i) for i, day in enumerate([5, 1, 9, 3, 5, 7])]
    result = probe_one(entries, 3, 7)
    assert [e.day for e in result.entries] == [5, 3, 5, 7]
    assert result.parts is None  # scattered: not a slice of the run
    assert_block_is_the_reference(result)
    # All-in and all-out are decided by the run's bounds and still slice.
    whole = probe_one(entries, 1, 9)
    assert whole.parts is not None and len(whole.entries) == 6
    assert_block_is_the_reference(whole)
    assert probe_one(entries, 10, 12).entries == ()


def test_empty_dark_and_merged_answers_have_no_parts_and_encode():
    empty = ProbeResult((), 0.0, 0, frozenset(), frozenset({3}))
    assert wire_block(empty) == codec.encode_entries_object(())
    assert_block_is_the_reference(probe_one([Entry(1, 1)], 5, 6))


def test_second_result_to_wire_encodes_nothing_for_any_range(monkeypatch):
    """The work-count floor: on an unmutated wave only the first frame
    cut from a bucket encodes its records — whatever ranges follow."""
    wave, executor, scheme = start(DelScheme, UpdateTechnique.IN_PLACE)
    executor.execute(scheme.start_ops())
    executor.execute(scheme.transition_ops(WINDOW + 1))
    day = WINDOW + 1
    calls = []
    real = codec.encode_records

    def counted(entries):
        calls.append(len(entries))
        return real(entries)

    monkeypatch.setattr(codec, "encode_records", counted)
    values = sorted({value for value, _, _ in batch_for(day)} - {"z"})
    whole = [(value, day - WINDOW + 1, day) for value in values]
    first = wave.probe_many(batch_for(day) + whole).results
    assert not calls  # answering encodes nothing
    for result in first:
        wire_block(result)
    runs_cut = {id(run) for r in first for run, _, _ in r.parts or ()}
    empties = sum(not r.entries for r in first)  # no parts: encoded, trivially
    assert len(calls) == len(runs_cut) + empties and len(runs_cut) > len(values)
    del calls[:]

    other_ranges = [
        (value, t1, t2)
        for value in values
        for t1, t2 in [(day - 2, day - 1), (day - WINDOW + 1, day), (day, day)]
    ]
    later = wave.probe_many(other_ranges).results
    for result in later:
        if result.entries:
            assert_block_is_the_reference(result)
    assert calls == []
    assert sum(len(r.entries) for r in later) > 20

    # One in-place turn later, only what it touched is encoded again.
    executor.execute(scheme.transition_ops(day + 1))
    for result in wave.probe_many([(v, day - 3, day + 1) for v in values]).results:
        assert_block_is_the_reference(result)
    assert 0 < len(calls) <= len(values) * N


def test_threads_racing_to_encode_one_run_all_get_its_bytes():
    """``records()`` is filled without a lock: from an immutable tuple,
    so a lost race costs a second encoding, never a wrong byte."""
    entries = [Entry(i, i // 7, None if i % 3 else i) for i in range(2000)]
    want = records_of(entries)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            run = kernels.Run.of(entries)
            start_line = threading.Barrier(8)
            got = []

            def encode():
                start_line.wait(timeout=10)
                got.append(run.records())

            threads = [threading.Thread(target=encode) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [want] * 8 and run.records() is run.records()
    finally:
        sys.setswitchinterval(interval)

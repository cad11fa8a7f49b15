"""Posting runs: post each day once, change nothing observable.

Two claims.  *Equivalence*: feeding every build and add from the days'
shared :class:`~repro.core.records.PostingRun` objects yields the same
wave — bucket order, entry order, extent offsets, per-op simulated
seconds, space high-water mark — as a twin fed straight from
``DayBatch.postings()`` (the reference below, the pre-run posting loop,
kept here so ``src/`` has only one).  *Lifetime*: the store reaches runs
only weakly, so the live runs are exactly the days of packed indexes
built from the store and not mutated since.
"""

import gc
import random

import pytest

from repro.core.boundary import drive, fault_at
from repro.core.executor import ExecutionReport, PlanExecutor
from repro.core.recovery import (
    JournaledExecutor,
    recover_transition,
    resume_scheme,
)
from repro.core.records import PostingRun, Record, RecordStore
from repro.core.schemes import ALL_SCHEMES, DelScheme, ReindexScheme, WataTable4Scheme
from repro.core.wave import WaveIndex
from repro.errors import SimulatedCrash
from repro.index.config import IndexConfig
from repro.index.updates import UpdateTechnique
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import CrashPoint, FaultInjector, FaultyDisk
from tests.conftest import make_store

WINDOW, N = 6, 3
CYCLES = 2
LAST_DAY = WINDOW * (CYCLES + 1) + 1
SEVEN_SCHEMES = (*ALL_SCHEMES, WataTable4Scheme)


# ----------------------------------------------------------------------
# The reference: every call re-posts from DayBatch.postings()
# ----------------------------------------------------------------------


class RepostingStore(RecordStore):
    """A store that keeps no runs: every ``runs_for`` and ``grouped_for``
    call re-posts the records, so no two builds share a run."""

    def runs_for(self, days):
        runs = []
        for day in sorted(set(days)):
            grouped = {}
            for value, entry in self.batch(day).postings():
                grouped.setdefault(value, []).append(entry)
            run = PostingRun.__new__(PostingRun)
            run.day = day
            run.grouped = {value: tuple(entries) for value, entries in grouped.items()}
            runs.append(run)
        return tuple(runs)

    def grouped_for(self, days):
        grouped = {}
        for day in sorted(set(days)):
            for value, entry in self.batch(day).postings():
                grouped.setdefault(value, []).append(entry)
        return grouped


def reposting_twin(store):
    twin = RepostingStore()
    for day in store.days:
        twin.add_batch(store.batch(day))
    return twin


def mixed_store(num_days, seed=3):
    """Unorderable values (ints and strings, so directory order falls back
    to first occurrence), repeated values inside a record, and infos."""
    rng = random.Random(seed)
    pool = ["a", "b", "c", "d", 1, 2, 3, ("t", 1)]
    store = RecordStore()
    rid = 0
    for day in range(1, num_days + 1):
        batch = []
        for _ in range(rng.randint(1, 5)):
            rid += 1
            values = tuple(rng.choices(pool, k=rng.randint(1, 4)))
            batch.append(Record(rid, day, values, nbytes=rng.randint(1, 90), info=rid % 3))
        store.add_records(day, batch)
    return store


def run_ops(scheme_cls, technique, store):
    """Run start + transitions op by op; return everything observable."""
    disk = SimulatedDisk()
    wave = WaveIndex(disk, IndexConfig(), N)
    executor = PlanExecutor(wave, store, technique)
    scheme = scheme_cls(WINDOW, N)
    trace = []

    def run(plan):
        disk.reset_high_water()
        for op in plan:
            report = ExecutionReport()
            executor.execute_op(op, report)
            seconds = report.seconds
            trace.append(
                (repr(op), seconds.precompute, seconds.transition, seconds.post)
            )
        trace.append(("high_water", disk.high_water_bytes, layout(wave)))

    run(scheme.start_ops())
    for day in range(WINDOW + 1, LAST_DAY + 1):
        run(scheme.transition_ops(day))
    return trace, disk.clock, disk.stats.snapshot()


def layout(wave):
    """Bindings with bucket order, entry order and byte positions."""
    out = []
    for name in sorted(wave.bindings):
        index = wave.bindings[name]
        buckets = []
        for bucket in index.buckets():
            extent, offset = index._bucket_position(bucket)
            buckets.append(
                (bucket.value, tuple(bucket.entries), extent.offset, extent.size,
                 offset, bucket.capacity_entries)
            )
        out.append((name, sorted(index.time_set), index.packed, buckets))
    return out


@pytest.mark.parametrize("technique", list(UpdateTechnique), ids=lambda t: t.value)
@pytest.mark.parametrize("scheme_cls", SEVEN_SCHEMES, ids=lambda c: c.name)
@pytest.mark.parametrize("make", [make_store, mixed_store], ids=["letters", "mixed"])
def test_waves_identical_to_reposting_twin(make, scheme_cls, technique):
    store = make(LAST_DAY)
    assert run_ops(scheme_cls, technique, store) == run_ops(
        scheme_cls, technique, reposting_twin(store)
    )


@pytest.mark.parametrize(
    "days",
    [[3], [1, 2, 3, 4, 5], [5, 2, 4], [2, 2, 5, 2, 5], (d for d in (4, 1))],
    ids=["single", "ascending", "shuffled", "repeated", "generator"],
)
def test_grouped_for_order_equals_reference(days):
    store = mixed_store(5)
    days = list(days)
    got = store.grouped_for(days)
    want = reposting_twin(store).grouped_for(days)
    assert list(got) == list(want)  # key order: insert_postings allocates in it
    assert got == want
    assert all(type(entries) is list for entries in got.values())


def test_grouped_for_result_is_the_callers_own():
    store = mixed_store(3)
    first = store.runs_for([1, 2])  # keep the runs alive across both calls
    grouped = store.grouped_for([1, 2])
    before = {value: list(entries) for value, entries in grouped.items()}
    for entries in grouped.values():
        entries.clear()
    grouped.clear()
    assert store.grouped_for([1, 2]) == before
    assert store.runs_for([2, 1]) == first


def test_batch_is_immutable_and_sized_once():
    store = RecordStore()
    batch = store.add_records(
        1, (Record(i, 1, ("a", "b"), nbytes=7) for i in range(3))
    )
    assert isinstance(batch.records, tuple)
    assert (batch.entry_count, batch.data_bytes) == (6, 21)
    with pytest.raises(AttributeError):
        batch.records.append(Record(9, 2, ("z",)))
    with pytest.raises(AttributeError):
        batch.records = ()
    assert store.data_bytes_for([1, 1]) == 21


# ----------------------------------------------------------------------
# Lifetime
# ----------------------------------------------------------------------


def live_days(store, collect=True):
    if collect:
        gc.collect()
    return sorted(store._runs.keys())


def held_days(*waves):
    """Days of runs held by bound indexes — each must still be packed and
    be exactly the merge of what it holds."""
    held = set()
    for wave in waves:
        for index in wave.bindings.values():
            if index._runs:
                assert index.packed
                assert {run.day for run in index._runs} == index.time_set
            held.update(run.day for run in index._runs)
    return sorted(held)


def start(scheme_cls, technique, store):
    wave = WaveIndex(SimulatedDisk(), IndexConfig(), N)
    executor = PlanExecutor(wave, store, technique)
    scheme = scheme_cls(WINDOW, N)
    executor.execute(scheme.start_ops())
    return wave, executor, scheme


def test_reindex_posts_each_day_once_and_holds_the_window(posted):
    store = make_store(4 * WINDOW)
    wave, executor, scheme = start(ReindexScheme, UpdateTechnique.SIMPLE_SHADOW, store)
    assert [b.day for b in posted] == list(range(1, WINDOW + 1))
    for day in range(WINDOW + 1, 4 * WINDOW + 1):
        del posted[:]
        executor.execute(scheme.transition_ops(day))
        assert [b.day for b in posted] == [day]
        window = list(range(day - WINDOW + 1, day + 1))
        assert live_days(store) == held_days(wave) == window


def test_del_in_place_releases_runs_on_first_mutation(posted):
    store = make_store(3 * WINDOW)
    wave, executor, scheme = start(DelScheme, UpdateTechnique.IN_PLACE, store)
    assert live_days(store) == held_days(wave) == list(range(1, WINDOW + 1))
    updated = set()
    for day in range(WINDOW + 1, 2 * WINDOW + 1):
        (op,) = scheme.transition_ops(day)
        executor.execute([op])
        updated.add(op.target)
        untouched = set(wave.constituents) - updated
        assert live_days(store) == held_days(wave) == sorted(
            d for name in untouched for d in wave.get(name).time_set
        )
    # Every initial constituent has been updated once: nothing is held.
    assert updated == set(wave.constituents)
    assert live_days(store) == []
    # Each day exactly once.
    assert [b.day for b in posted] == list(range(1, 2 * WINDOW + 1))


@pytest.mark.parametrize("technique", list(UpdateTechnique), ids=lambda t: t.value)
@pytest.mark.parametrize("scheme_cls", SEVEN_SCHEMES, ids=lambda c: c.name)
def test_live_runs_are_exactly_the_held_runs(scheme_cls, technique):
    store = make_store(3 * WINDOW)
    wave, executor, scheme = start(scheme_cls, technique, store)
    for day in range(WINDOW + 1, 3 * WINDOW + 1):
        executor.execute(scheme.transition_ops(day))
        # Runs are in no reference cycle: they die without a collection.
        live = live_days(store, collect=False)
        assert live == held_days(wave)
        assert set(live) <= set().union(*wave.days_by_name().values())
    assert live_days(store) == live


@pytest.mark.parametrize(
    "crash",
    [fault_at("op", 0), CrashPoint(after_ios=0), CrashPoint(after_ios=1)],
    ids=["op-boundary-0", "CrashPoint(after_ios=0)", "CrashPoint(after_ios=1)"],
)
@pytest.mark.parametrize("scheme_cls", [ReindexScheme, DelScheme], ids=lambda c: c.name)
def test_no_run_outlives_its_indexes_across_a_crash(scheme_cls, crash):
    """One crash-matrix cell: crash mid-transition, recover, carry on."""
    technique = UpdateTechnique.SIMPLE_SHADOW
    store = make_store(2 * WINDOW)
    injector = FaultInjector()
    disk = FaultyDisk(injector=injector)
    wave = WaveIndex(disk, IndexConfig(), N)
    executor = JournaledExecutor(wave, store, technique)
    scheme = scheme_cls(WINDOW, N)
    executor.execute(scheme.start_ops())
    crash_day = WINDOW + 2
    for day in range(WINDOW + 1, 2 * WINDOW + 1):
        plan = scheme.transition_ops(day)
        if day == crash_day:
            steps = executor.journaled_steps(
                plan, day=day, scheme_state=scheme.get_state()
            )
            with pytest.raises(SimulatedCrash):
                if isinstance(crash, CrashPoint):
                    injector.arm_crash(crash)
                    drive(steps)
                else:
                    drive(steps, crash)
            injector.disarm()
            assert live_days(store) == held_days(wave)
            scheme = resume_scheme(executor.journal)
            recover_transition(executor.journal, wave, store, technique)
            executor = JournaledExecutor(wave, store, technique)
        else:
            executor.execute(plan)
        assert live_days(store) == held_days(wave)
        lo = day - WINDOW + 1
        assert sorted(wave.timed_segment_scan(lo, day).entries) == sorted(
            store.brute_scan(lo, day)
        )

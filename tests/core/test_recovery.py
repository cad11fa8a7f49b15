"""Tests for op-level journaling and crash recovery.

The defining property mirrors the checkpoint suite's, one level down: a
transition that crashes at *any* point and is rolled forward must be
binding-for-binding and query-for-query identical to one that never
crashed, with zero leaked extents.
"""

import pytest

from repro.core.boundary import drive, fault_at
from repro.core.executor import PlanExecutor
from repro.core.invariants import check_wave_invariants
from repro.core.recovery import (
    JournaledExecutor,
    TransitionJournal,
    op_from_dict,
    op_to_dict,
    recover_transition,
    resume_scheme,
    sweep_orphan_extents,
)
from repro.core.schemes import DelScheme, RataStarScheme, ReindexPlusScheme
from repro.core.wave import WaveIndex
from repro.errors import RecoveryError, SimulatedCrash
from repro.index.config import IndexConfig
from repro.index.updates import UpdateTechnique
from repro.storage.faults import CrashPoint, FaultInjector, FaultyDisk
from tests.conftest import make_store

WINDOW, N, LAST = 6, 3, 18


def _fresh(store, scheme_factory, technique=UpdateTechnique.SIMPLE_SHADOW):
    disk = FaultyDisk(injector=FaultInjector())
    wave = WaveIndex(disk, IndexConfig(), N)
    executor = JournaledExecutor(wave, store, technique)
    scheme = scheme_factory()
    executor.execute(scheme.start_ops())
    return disk, wave, executor, scheme


def _twin_days(store, scheme_factory, last_day):
    _, wave, executor, scheme = _fresh(store, scheme_factory)
    for day in range(WINDOW + 1, last_day + 1):
        executor.execute(scheme.transition_ops(day))
    return wave


def _assert_query_equivalent(wave_a, wave_b, day):
    lo, hi = day - WINDOW + 1, day
    assert sorted(wave_a.timed_segment_scan(lo, hi).record_ids) == sorted(
        wave_b.timed_segment_scan(lo, hi).record_ids
    )
    for value in "abcdefgh":
        assert sorted(
            wave_a.timed_index_probe(value, lo, hi).record_ids
        ) == sorted(wave_b.timed_index_probe(value, lo, hi).record_ids)


class TestJournalSerialisation:
    def test_ops_round_trip(self):
        scheme = ReindexPlusScheme(WINDOW, N)
        plan = list(scheme.start_ops())
        for day in range(WINDOW + 1, WINDOW + 5):
            plan.extend(scheme.transition_ops(day))
        for op in plan:
            assert op_from_dict(op_to_dict(op)) == op

    def test_journal_json_round_trip(self):
        scheme = DelScheme(WINDOW, N)
        scheme.start_ops()
        plan = scheme.transition_ops(WINDOW + 1)
        journal = TransitionJournal.begin(
            day=WINDOW + 1,
            plan=plan,
            pre_days={"I1": {1, 2, 3}, "I2": {4, 5, 6}},
            scheme_state=scheme.get_state(),
        )
        journal.completed = 1
        journal.in_flight = 1
        back = TransitionJournal.from_json(journal.to_json())
        assert back == journal

    def test_unknown_op_type_rejected(self):
        with pytest.raises(RecoveryError):
            op_from_dict({"type": "ExplodeOp", "phase": "transition"})

    def test_version_checked(self):
        with pytest.raises(RecoveryError):
            TransitionJournal.from_dict({"version": 99})


@pytest.mark.parametrize(
    "scheme_factory",
    [
        lambda: DelScheme(WINDOW, N),
        lambda: ReindexPlusScheme(WINDOW, N),
        lambda: RataStarScheme(WINDOW, N),
    ],
    ids=["DEL", "REINDEX+", "RATA*"],
)
class TestCrashRecovery:
    def test_boundary_crash_recovers_to_twin(self, scheme_factory):
        store = make_store(LAST, seed=5)
        crash_day = WINDOW + 2
        disk, wave, executor, scheme = _fresh(store, scheme_factory)
        for day in range(WINDOW + 1, crash_day):
            executor.execute(scheme.transition_ops(day))
        plan = scheme.transition_ops(crash_day)
        with pytest.raises(SimulatedCrash):
            drive(
                executor.journaled_steps(
                    plan, day=crash_day, scheme_state=scheme.get_state()
                ),
                fault_at("op", max(len(plan) - 1, 0)),
            )
        journal = executor.journal
        assert journal.in_flight is None  # boundary crash: between ops
        recover_transition(journal, wave, store)

        twin = _twin_days(store, scheme_factory, crash_day)
        assert wave.days_by_name() == twin.days_by_name()
        _assert_query_equivalent(wave, twin, crash_day)
        check_wave_invariants(wave)

    def test_mid_op_crash_recovers_to_twin(self, scheme_factory):
        store = make_store(LAST, seed=5)
        crash_day = WINDOW + 1
        disk, wave, executor, scheme = _fresh(store, scheme_factory)
        plan = scheme.transition_ops(crash_day)
        disk.injector.arm_crash(CrashPoint(after_ios=1))
        with pytest.raises(SimulatedCrash):
            drive(
                executor.journaled_steps(
                    plan, day=crash_day, scheme_state=scheme.get_state()
                )
            )
        disk.injector.disarm()
        recover_transition(executor.journal, wave, store)

        twin = _twin_days(store, scheme_factory, crash_day)
        assert wave.days_by_name() == twin.days_by_name()
        _assert_query_equivalent(wave, twin, crash_day)
        check_wave_invariants(wave)

    def test_resumed_scheme_continues_the_run(self, scheme_factory):
        store = make_store(LAST, seed=9)
        crash_day = WINDOW + 3
        disk, wave, executor, scheme = _fresh(store, scheme_factory)
        for day in range(WINDOW + 1, crash_day):
            executor.execute(scheme.transition_ops(day))
        plan = scheme.transition_ops(crash_day)
        with pytest.raises(SimulatedCrash):
            drive(
                executor.journaled_steps(
                    plan, day=crash_day, scheme_state=scheme.get_state()
                ),
                fault_at("op", 0),
            )
        journal = executor.journal
        # The executor and scheme objects "died"; only journal + disk live.
        resumed = resume_scheme(journal)
        recover_transition(journal, wave, store)
        executor2 = PlanExecutor(wave, store, UpdateTechnique.SIMPLE_SHADOW)
        for day in range(crash_day + 1, LAST + 1):
            executor2.execute(resumed.transition_ops(day))

        twin = _twin_days(store, scheme_factory, LAST)
        assert wave.days_by_name() == twin.days_by_name()
        _assert_query_equivalent(wave, twin, LAST)
        check_wave_invariants(wave, resumed)


class TestRecoveryEdges:
    def test_recovering_finished_journal_is_noop(self):
        store = make_store(WINDOW + 2, seed=1)
        disk, wave, executor, scheme = _fresh(store, lambda: DelScheme(WINDOW, N))
        plan = scheme.transition_ops(WINDOW + 1)
        drive(executor.journaled_steps(plan, day=WINDOW + 1))
        before = wave.days_by_name()
        report = recover_transition(executor.journal, wave, store)
        assert report.ops_executed == 0
        assert wave.days_by_name() == before

    def test_resume_without_scheme_state_rejected(self):
        journal = TransitionJournal(day=8, plan=[])
        with pytest.raises(RecoveryError, match="no scheme state"):
            resume_scheme(journal)

    def test_corrupt_completed_count_rejected(self):
        store = make_store(WINDOW + 1, seed=1)
        _, wave, _, _ = _fresh(store, lambda: DelScheme(WINDOW, N))
        journal = TransitionJournal(day=8, plan=[], completed=3)
        with pytest.raises(RecoveryError):
            recover_transition(journal, wave, store)

    def test_sweep_frees_only_unreferenced_extents(self):
        store = make_store(WINDOW, seed=1)
        disk, wave, _, _ = _fresh(store, lambda: DelScheme(WINDOW, N))
        live_before = disk.live_bytes
        orphan = disk.allocate(4096)  # simulated partial work
        assert sweep_orphan_extents(wave) == 1
        assert disk.live_bytes == live_before
        assert orphan.extent_id not in {
            e.extent_id for e in disk.live_extent_list()
        }
        # A second sweep finds nothing.
        assert sweep_orphan_extents(wave) == 0

    def test_journal_sink_sees_every_mutation(self):
        store = make_store(WINDOW + 1, seed=1)
        snapshots = []
        disk = FaultyDisk(injector=FaultInjector())
        wave = WaveIndex(disk, IndexConfig(), N)
        executor = JournaledExecutor(
            wave,
            store,
            UpdateTechnique.SIMPLE_SHADOW,
            journal_sink=lambda j: snapshots.append(j.to_json()),
        )
        scheme = DelScheme(WINDOW, N)
        executor.execute(scheme.start_ops())
        plan = scheme.transition_ops(WINDOW + 1)
        drive(executor.journaled_steps(plan, day=WINDOW + 1))
        # begin + (in-flight + completed) per op.
        assert len(snapshots) == 1 + 2 * len(plan)
        final = TransitionJournal.from_json(snapshots[-1])
        assert final.finished
        assert final.in_flight is None

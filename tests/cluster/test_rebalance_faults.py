"""Rebalancing under faults: a move that dies must change nothing.

:func:`move_replica` copies first and swaps only once every clone has
landed, so a device kill, a simulated crash, or space exhaustion at any
point of the copy phase must (a) leave the source replica byte-for-byte
intact and still serving, and (b) sweep every orphaned extent off the
target — a half-moved shard is indistinguishable from an unmoved one.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation, move_replica
from repro.core.schemes import scheme_by_name
from repro.errors import DeviceFailure, OutOfSpaceError, SimulatedCrash
from repro.sim.querygen import QueryWorkload
from repro.storage.faults import CrashPoint, FaultInjector, FaultyDisk
from tests.conftest import make_store

W, N, LAST = 8, 2, 12
VALUES = "abcdefgh"


def _workload():
    return QueryWorkload(
        probes_per_day=4,
        scans_per_day=1,
        value_picker=lambda rng: rng.choice(VALUES),
        seed=3,
    )


def _build(injectors=None):
    def factory(i):
        disk = FaultyDisk(injector=FaultInjector())
        if injectors is not None:
            injectors[i] = disk.injector
        return disk

    return ClusterSimulation(
        lambda: scheme_by_name("REINDEX")(W, N),
        make_store(LAST),
        queries=_workload(),
        cluster=ClusterConfig(n_shards=2, replication=1),
        device_factory=factory,
    )


def _answers(sim):
    lo, hi = LAST - W + 1, LAST
    return sim.coordinator.probe_many([(v, lo, hi) for v in VALUES])


def _postings(wave):
    return {
        name: sorted(
            (b.value, e.record_id, e.day)
            for b in index.buckets()
            for e in b.entries
        )
        for name, index in wave.bindings.items()
    }


class TestMoveUnderFaults:
    def test_target_kill_mid_copy_leaves_source_intact(self):
        sim = _build()
        sim.run(LAST)
        replica = sim.shards[0].replicas[0]
        before_postings = _postings(replica.wave)
        before = _answers(sim)
        target = FaultyDisk(
            injector=FaultInjector(fail_device_after_ios=1)
        )
        sim.array.add_device(target)
        with pytest.raises(DeviceFailure):
            move_replica(replica, target, sim.array)
        # The swap never happened: same device, same bindings, and the
        # half-written clones were swept off the target.
        assert replica.device is sim.array.devices[0]
        assert _postings(replica.wave) == before_postings
        assert target.live_bytes == 0
        after = _answers(sim)
        for mine, theirs in zip(after, before):
            assert mine.record_ids == theirs.record_ids
            assert mine.missing_days == frozenset()

    def test_crash_mid_copy_sweeps_target_and_retry_succeeds(self):
        sim = _build()
        sim.run(LAST)
        replica = sim.shards[0].replicas[0]
        before_postings = _postings(replica.wave)
        before = _answers(sim)
        target = FaultyDisk(
            injector=FaultInjector(crash=CrashPoint(after_ios=1))
        )
        sim.array.add_device(target)
        with pytest.raises(SimulatedCrash):
            move_replica(replica, target, sim.array)
        # Disk state survives a process crash; the cleanup swept every
        # orphan extent, so the target is as empty as before the move.
        assert target.live_bytes == 0
        assert _postings(replica.wave) == before_postings
        # After a restart (disarm) the same move completes and answers
        # survive bit for bit.
        target.injector.disarm()
        report = move_replica(replica, target, sim.array)
        assert report.indexes_moved > 0
        assert replica.device is target
        assert _postings(replica.wave) == before_postings
        sim.array.check_invariants()
        after = _answers(sim)
        for mine, theirs in zip(after, before):
            assert mine.record_ids == theirs.record_ids
            assert mine.missing_days == frozenset()

    def test_source_crash_mid_copy_leaves_both_sides_clean(self):
        injectors = {}
        sim = _build(injectors=injectors)
        sim.run(LAST)
        replica = sim.shards[0].replicas[0]
        before_postings = _postings(replica.wave)
        source_live = replica.device.live_bytes
        target = FaultyDisk(injector=FaultInjector())
        sim.array.add_device(target)
        injectors[0].arm_crash(CrashPoint(after_ios=1))
        with pytest.raises(SimulatedCrash):
            move_replica(replica, target, sim.array)
        injectors[0].disarm()
        assert _postings(replica.wave) == before_postings
        assert replica.device.live_bytes == source_live
        assert target.live_bytes == 0
        sim.array.check_invariants()

    def test_undersized_target_aborts_cleanly(self):
        sim = _build()
        sim.run(LAST)
        replica = sim.shards[0].replicas[0]
        before_postings = _postings(replica.wave)
        target = FaultyDisk(
            injector=FaultInjector(space_limit_bytes=64)
        )
        sim.array.add_device(target)
        with pytest.raises(OutOfSpaceError):
            move_replica(replica, target, sim.array)
        assert _postings(replica.wave) == before_postings
        assert target.live_bytes == 0
        assert replica.device is sim.array.devices[0]
        sim.array.check_invariants()

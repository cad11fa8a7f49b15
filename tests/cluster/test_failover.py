"""Replica failover and partial-result correctness under device faults.

The cluster's fault contract: killing a shard's primary device — even
mid-transition — yields either a replica failover (answers identical to
a fault-free run) or, with no replica left, a correct partial result
whose missing shards and days are enumerated.  *Never a wrong answer.*
The matrix covers placement (hash/range partitioner) x serving policy
(wait/degrade) x replication (1/2).
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.core.boundary import drive
from repro.core.schemes import scheme_by_name
from repro.sim.querygen import QueryWorkload
from repro.sim.scheduler import OverlapPolicy
from repro.storage.faults import FaultInjector, FaultyDisk
from tests.cluster.conservation import assert_bytes_conserved
from tests.conftest import make_store

W, N, LAST = 8, 2, 13
VALUES = "abcdefgh"

#: One split point in the middle of the value alphabet: shard 0 owns
#: a-d, shard 1 owns e-h.
RANGE_SPLITS = ("e",)


def _workload():
    return QueryWorkload(
        probes_per_day=6,
        scans_per_day=2,
        value_picker=lambda rng: rng.choice(VALUES),
        seed=3,
    )


def _build(partitioner, policy, replication, injectors=None):
    cfg = ClusterConfig(
        n_shards=2,
        replication=replication,
        partitioner=partitioner,
        range_splits=RANGE_SPLITS if partitioner == "range" else (),
        maintenance="staggered",
        max_concurrent_frac=0.5,
        policy=policy,
    )

    def factory(i):
        disk = FaultyDisk(injector=FaultInjector())
        if injectors is not None:
            injectors[i] = disk.injector
        return disk

    return ClusterSimulation(
        lambda: scheme_by_name("REINDEX")(W, N),
        make_store(LAST),
        queries=_workload(),
        cluster=cfg,
        device_factory=factory,
    )


def _final_answers(sim):
    lo, hi = LAST - W + 1, LAST
    probes = sim.coordinator.probe_many([(v, lo, hi) for v in VALUES])
    scan = sim.coordinator.scan(lo, hi)
    return probes, scan


@pytest.mark.parametrize("partitioner", ["hash", "range"])
@pytest.mark.parametrize(
    "policy", [OverlapPolicy.WAIT, OverlapPolicy.DEGRADE]
)
class TestFaultMatrix:
    def test_replicated_shard_fails_over_and_answers_match(
        self, partitioner, policy
    ):
        injectors = {}
        sim = _build(partitioner, policy, replication=2, injectors=injectors)
        twin = _build(partitioner, policy, replication=2)
        sim.run_start()
        twin.run_start()
        # Kill shard 0's primary device; the next transition's first I/O
        # on it raises DeviceFailure mid-plan.
        victim = sim.shards[0].primary
        victim.device.injector.fail_device()
        for day in range(W + 1, LAST + 1):
            sim.run_transition(day)
            assert_bytes_conserved(sim)
            twin.run_transition(day)
        assert victim not in sim.shards[0].replicas
        assert sim.shards[0].primary is not None
        assert sim.shards[0].primary.replica_id == 1
        # Failover is invisible to correctness: answers equal the
        # fault-free twin's, and nothing is reported missing.
        probes, scan = _final_answers(sim)
        twin_probes, twin_scan = _final_answers(twin)
        for mine, theirs in zip(probes, twin_probes):
            assert sorted(mine.record_ids) == sorted(theirs.record_ids)
            assert mine.missing_days == frozenset()
        assert sorted(e.record_id for e in scan.entries) == sorted(
            e.record_id for e in twin_scan.entries
        )
        assert probes.summary.shards_unavailable == ()
        assert not any(d.missing_days for d in sim.result.days)

    def test_unreplicated_shard_degrades_to_correct_partial_results(
        self, partitioner, policy
    ):
        injectors = {}
        sim = _build(partitioner, policy, replication=1, injectors=injectors)
        twin = _build(partitioner, policy, replication=1)
        sim.run_start()
        twin.run_start()
        victim = sim.shards[0].primary
        victim.device.injector.fail_device()
        for day in range(W + 1, LAST + 1):
            sim.run_transition(day)
            assert_bytes_conserved(sim)
            twin.run_transition(day)
        assert not sim.shards[0].available
        assert 0 in sim.result.days[-1].shards_unavailable
        # Day-level accounting: the dark shard's days are enumerated.
        assert any(d.missing_days for d in sim.result.days)
        assert sim.result.total_queries_degraded() > 0

        lo, hi = LAST - W + 1, LAST
        probes, scan = _final_answers(sim)
        twin_probes, twin_scan = _final_answers(twin)
        store = make_store(LAST)
        owner = sim.partitioner.shard_for
        for value, mine, theirs in zip(VALUES, probes, twin_probes):
            if owner(value) == 0:
                # Dead shard: empty but honest — the lost days are
                # enumerated, nothing is fabricated.
                assert mine.record_ids == ()
                assert mine.missing_days
                assert mine.missing_days <= frozenset(range(lo, hi + 1))
            else:
                assert sorted(mine.record_ids) == sorted(theirs.record_ids)
                assert mine.missing_days == frozenset()
        assert probes.summary.shards_unavailable == (0,)
        # The scan returns exactly the surviving shard's postings — a
        # strict, correct subset of the oracle, never a wrong entry.
        want = {
            e.record_id
            for e in store.brute_scan(lo, hi)
        }
        got = {e.record_id for e in scan.entries}
        assert got <= want
        twin_ids = {e.record_id for e in twin_scan.entries}
        assert twin_ids == want
        surviving = {
            e.record_id
            for day in range(lo, hi + 1)
            for r in sim.shards[1].store.batch(day).records
            for e in [r]
        }
        assert got == {rid for rid in want if rid in {r for r in surviving}}
        assert scan.missing_days


class TestMidTransitionFailureTimeline:
    def test_failure_mid_plan_marks_replica_and_stops_its_plan(self):
        injectors = {}
        sim = _build("hash", OverlapPolicy.WAIT, 2, injectors=injectors)
        sim.run_start()
        victim = sim.shards[0].primary
        # Arm a counted failure so the device dies partway through the
        # next day's plan rather than before it.
        victim.device.injector.fail_device_after_ios = (
            victim.device.injector.stats.ios + 3
        )
        stats = sim.run_transition(W + 1)
        assert_bytes_conserved(sim)
        assert victim not in sim.shards[0].replicas
        # The replica's timeline stops at the failure point; the shard's
        # window is still well formed and the day completed.
        assert victim.maintenance_end >= victim.maintenance_start
        assert stats.makespan_seconds > 0.0
        assert sim.shards[0].available

    def test_serving_time_failure_counts_a_failover(self):
        injectors = {}
        sim = _build("hash", OverlapPolicy.WAIT, 2, injectors=injectors)
        sim.run_start()
        victim = sim.shards[0].primary
        # Die at the day's serving boundary, after every maintenance op,
        # so the failure surfaces on a query's read during serving.

        def die_at_serving(boundary):
            if boundary.kind == "serve":
                victim.device.injector.fail_device()

        stats = drive(sim.day_steps(W + 1), die_at_serving)
        assert_bytes_conserved(sim)
        assert victim not in sim.shards[0].replicas
        assert stats.failovers >= 1
        # Failover kept every answer complete.
        assert not any(d.missing_days for d in sim.result.days)


class TestFailoverCostAccounting:
    """Regression: failover is not free.  The attempt that died
    mid-answer consumed real device time before the fault fired, and a
    real client waits through it before the survivor's answer lands —
    so it must be charged to both the serial and elapsed cost clocks,
    not silently dropped with the dead replica."""

    def test_aborted_attempt_charges_serial_and_elapsed(self):
        injectors = {}
        sim = _build("hash", OverlapPolicy.WAIT, 2, injectors=injectors)
        twin = _build("hash", OverlapPolicy.WAIT, 2)
        sim.run(LAST)
        twin.run(LAST)
        victim = sim.shards[0].primary
        inj = victim.device.injector
        # A counted failure: the dying attempt performs three charged
        # I/Os before the device gives out mid-batch.
        inj.fail_device_after_ios = inj.stats.ios + 3
        probes, _scan = _final_answers(sim)
        twin_probes, _twin_scan = _final_answers(twin)
        summary = probes.summary
        assert summary.failovers >= 1
        assert summary.aborted_seconds > 0.0
        # Serial time = the per-shard answers' work plus the dead
        # attempt's charged reads — exactly the fault-free cost plus
        # the failover overhead, nothing lost and nothing double-billed.
        per_shard = sum(s.seconds for _, s in summary.per_shard)
        assert summary.serial_seconds == pytest.approx(
            per_shard + summary.aborted_seconds
        )
        healthy = twin_probes.summary
        assert summary.serial_seconds == pytest.approx(
            healthy.serial_seconds + summary.aborted_seconds
        )
        # The aborted attempt is sequential with the survivor's answer
        # on the same shard, so it stretches elapsed time too.
        assert summary.elapsed_seconds >= healthy.elapsed_seconds
        assert summary.elapsed_seconds >= summary.aborted_seconds
        # And the overhead never bought a worse answer.
        for mine, theirs in zip(probes, twin_probes):
            assert sorted(mine.record_ids) == sorted(theirs.record_ids)
            assert mine.missing_days == frozenset()


class TestServingTimeFailoverBeatsDegradation:
    """Regression: a device fault during *serving* must fail over, not
    degrade, while a healthy replica exists.

    The wave index's degraded mode swallows ``FaultError`` into a
    partial answer, which used to hide the fault from the coordinator
    entirely — the shard answered with its whole window missing even
    though a live replica held a full copy.
    """

    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_post_run_device_kill_fails_over_with_full_answer(
        self, partitioner
    ):
        injectors = {}
        sim = _build(partitioner, OverlapPolicy.WAIT, 2, injectors)
        twin = _build(partitioner, OverlapPolicy.WAIT, 2)
        sim.run(LAST)
        twin.run(LAST)

        victim = sim.shards[0].primary
        victim.device.injector.fail_device()

        probes, scan = _final_answers(sim)
        want_probes, want_scan = _final_answers(twin)
        assert victim not in sim.shards[0].replicas
        assert sim.shards[0].primary.replica_id != victim.replica_id
        assert probes.summary.failovers >= 1
        assert_bytes_conserved(sim)
        for got, want in zip(probes, want_probes):
            assert sorted(got.record_ids) == sorted(want.record_ids)
            assert not got.missing_days
        assert not scan.missing_days
        assert sorted(e.record_id for e in scan.entries) == sorted(
            e.record_id for e in want_scan.entries
        )

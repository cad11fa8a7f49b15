"""Cluster self-healing: circuit breakers, retry budgets, re-replication.

Two layers.  The breaker unit suite drives :class:`ReplicaHealthMonitor`
directly through its state machine (live → suspect → open → half-open →
live/retired, with escalating cooldowns).  The integration suite kills
and flakes real devices under a self-healing :class:`ClusterSimulation`
and asserts the acceptance contract: the cluster auto-returns to full
replication, answers stay bit-identical to a fault-free twin, and no
shard ever goes dark.
"""

from dataclasses import dataclass, field

import pytest

from repro.cluster import (
    BreakerConfig,
    BreakerState,
    ClusterConfig,
    ClusterSimulation,
    ReplicaHealth,
    ReplicaHealthMonitor,
    SelfHealConfig,
)
from repro.core.schemes import scheme_by_name
from repro.sim.querygen import QueryWorkload
from repro.storage.faults import (
    CrashPoint,
    FaultInjector,
    FaultyDisk,
    RetryPolicy,
)
from tests.cluster.conservation import assert_bytes_conserved
from tests.conftest import make_store

W, N, LAST = 8, 2, 14
VALUES = "abcdefgh"


# ----------------------------------------------------------------------
# Breaker state machine (unit)
# ----------------------------------------------------------------------


@dataclass(eq=False)
class _FakeReplica:
    shard_id: int
    replica_id: int
    health: ReplicaHealth = field(default_factory=ReplicaHealth)


@dataclass
class _FakeShard:
    replicas: list = field(default_factory=list)


def _monitor(**breaker_kwargs):
    breaker = BreakerConfig(
        failure_threshold=3,
        cooldown_s=1.0,
        **breaker_kwargs,
    )
    return ReplicaHealthMonitor(SelfHealConfig(breaker=breaker))


class TestBreakerStateMachine:
    def test_threshold_consecutive_failures_open_the_breaker(self):
        monitor = _monitor()
        replica = _FakeReplica(0, 0)
        monitor.on_transient(replica, now=0.0)
        assert replica.health.state is BreakerState.SUSPECT
        monitor.on_transient(replica, now=0.0)
        assert replica.health.state is BreakerState.SUSPECT
        monitor.on_transient(replica, now=5.0)
        health = replica.health
        assert health.state is BreakerState.OPEN
        assert health.opened_at == 5.0
        assert health.opens == 1
        counters = monitor.obs.counters()
        assert counters["cluster.heal.breaker_opens"] == 1
        assert counters["cluster.heal.transients"] == 3

    def test_success_resets_the_suspect_streak(self):
        monitor = _monitor()
        replica = _FakeReplica(0, 0)
        monitor.on_transient(replica, now=0.0)
        monitor.on_transient(replica, now=0.0)
        monitor.record_success(replica)
        assert replica.health.state is BreakerState.LIVE
        assert replica.health.consecutive_failures == 0
        # The streak restarted: two more transients only suspect again.
        monitor.on_transient(replica, now=0.0)
        monitor.on_transient(replica, now=0.0)
        assert replica.health.state is BreakerState.SUSPECT

    def test_open_breaker_half_opens_after_cooldown(self):
        monitor = _monitor()
        replica = _FakeReplica(0, 0)
        shard = _FakeShard([replica])
        for _ in range(3):
            monitor.on_transient(replica, now=10.0)
        assert replica.health.state is BreakerState.OPEN
        picked, wait = monitor.serving_replica(shard, now=11.5)
        assert picked is replica
        assert wait == 0.0
        assert replica.health.state is BreakerState.HALF_OPEN
        assert monitor.obs.counters()["cluster.heal.breaker_half_opens"] == 1

    def test_all_open_request_waits_out_the_soonest_cooldown(self):
        monitor = _monitor()
        replica = _FakeReplica(0, 0)
        shard = _FakeShard([replica])
        for _ in range(3):
            monitor.on_transient(replica, now=10.0)
        # Cooldown runs to 11.0; a request at 10.4 waits the last 0.6s
        # (charged to its latency, not to any device) and probes.
        picked, wait = monitor.serving_replica(shard, now=10.4)
        assert picked is replica
        assert wait == pytest.approx(0.6)
        assert replica.health.state is BreakerState.HALF_OPEN

    def test_failed_probe_reopens_with_escalating_cooldown(self):
        monitor = _monitor()
        replica = _FakeReplica(0, 0)
        shard = _FakeShard([replica])
        for _ in range(3):
            monitor.on_transient(replica, now=0.0)
        for expected in (2.0, 4.0, 8.0, 8.0):  # doubled, then capped
            monitor.serving_replica(shard, now=100.0)
            monitor.on_transient(replica, now=100.0)
            health = replica.health
            assert health.state is BreakerState.OPEN
            assert health.cooldown_s == expected

    def test_successful_probe_closes_and_resets_cooldown(self):
        monitor = _monitor()
        replica = _FakeReplica(0, 0)
        shard = _FakeShard([replica])
        for _ in range(3):
            monitor.on_transient(replica, now=0.0)
        monitor.serving_replica(shard, now=100.0)
        monitor.on_transient(replica, now=100.0)  # escalate to 2.0
        monitor.serving_replica(shard, now=200.0)
        monitor.record_success(replica)
        health = replica.health
        assert health.state is BreakerState.LIVE
        assert health.cooldown_s == 1.0
        assert monitor.obs.counters()["cluster.heal.breaker_closes"] == 1

    def test_open_breaker_yields_to_a_live_replica(self):
        monitor = _monitor()
        flaky = _FakeReplica(0, 0)
        healthy = _FakeReplica(0, 1)
        shard = _FakeShard([flaky, healthy])
        for _ in range(3):
            monitor.on_transient(flaky, now=0.0)
        picked, wait = monitor.serving_replica(shard, now=0.1)
        assert picked is healthy
        assert wait == 0.0
        assert flaky.health.state is BreakerState.OPEN

    def test_retired_replica_never_serves_again(self):
        monitor = _monitor()
        replica = _FakeReplica(0, 0)
        shard = _FakeShard([replica])
        monitor.retire(replica, reason="device-failure")
        assert replica.health.state is BreakerState.RETIRED
        counters = monitor.obs.counters()
        assert counters["cluster.heal.retired"] == 1
        assert counters["cluster.heal.retired.device-failure"] == 1
        picked, wait = monitor.serving_replica(shard, now=1e9)
        assert picked is None
        # Further faults and successes are no-ops on a retired replica.
        monitor.on_transient(replica, now=0.0)
        monitor.record_success(replica)
        assert replica.health.state is BreakerState.RETIRED

    def test_note_retry_tracks_the_per_op_high_water(self):
        monitor = _monitor()
        monitor.note_retry(1)
        monitor.note_retry(2)
        monitor.note_retry(1)
        assert monitor.max_op_retries == 2
        assert monitor.obs.counters()["cluster.heal.retries"] == 3


# ----------------------------------------------------------------------
# Self-healing cluster (integration)
# ----------------------------------------------------------------------


def _workload():
    return QueryWorkload(
        probes_per_day=6,
        scans_per_day=1,
        value_picker=lambda rng: rng.choice(VALUES),
        seed=3,
    )


def _build(
    *,
    n_shards=2,
    replication=2,
    selfheal=None,
    injectors=None,
    devices_per_replica=1,
):
    cfg = ClusterConfig(
        n_shards=n_shards,
        replication=replication,
        partitioner="hash",
        maintenance="staggered",
        max_concurrent_frac=0.5,
        selfheal=selfheal,
        devices_per_replica=devices_per_replica,
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


def _assert_matches_twin(sim, twin):
    probes, scan = _final_answers(sim)
    twin_probes, twin_scan = _final_answers(twin)
    for mine, theirs in zip(probes, twin_probes):
        assert sorted(mine.record_ids) == sorted(theirs.record_ids)
        assert mine.missing_days == frozenset()
    assert sorted(e.record_id for e in scan.entries) == sorted(
        e.record_id for e in twin_scan.entries
    )
    assert not scan.missing_days


class TestReReplication:
    def test_killed_replica_is_rebuilt_to_full_replication(self):
        injectors = {}
        sim = _build(selfheal=SelfHealConfig(), injectors=injectors)
        twin = _build()
        sim.run_start()
        twin.run_start()
        victim = sim.shards[0].primary
        victim.device.injector.fail_device()
        for day in range(W + 1, LAST + 1):
            sim.run_transition(day)
            assert_bytes_conserved(sim)
            twin.run_transition(day)
        # The kill retired the replica; the healer restored replication.
        assert victim not in sim.shards[0].replicas
        assert victim.health.state is BreakerState.RETIRED
        assert len(sim.shards[0].replicas) == 2
        assert sim.result.total_rebuilds() == 1
        rebuilt = sim.shards[0].replicas[-1]
        assert rebuilt.replica_id > victim.replica_id
        assert rebuilt.caught_up_day is not None
        counters = sim.obs.counters()
        assert counters["cluster.heal.rebuilds"] == 1
        assert counters["cluster.heal.rebuild_bytes"] > 0
        assert counters["cluster.heal.retired"] == 1
        # Never a dark day, never a diverging answer.
        assert all(not d.shards_unavailable for d in sim.result.days)
        assert not any(d.missing_days for d in sim.result.days)
        _assert_matches_twin(sim, twin)

    def test_rebuilt_replica_spans_as_many_devices_as_its_donor(self):
        injectors = {}
        sim = _build(
            n_shards=1, devices_per_replica=3, selfheal=SelfHealConfig(),
            injectors=injectors,
        )
        twin = _build(n_shards=1, devices_per_replica=3)
        sim.run_start()
        twin.run_start()
        victim = sim.shards[0].replicas[1]
        victim.device.injector.fail_device()
        for day in range(W + 1, LAST + 1):
            sim.run_transition(day)
            assert_bytes_conserved(sim)
            twin.run_transition(day)
        replicas = sim.shards[0].replicas
        assert [len(r.span) for r in replicas] == [3, 3]
        assert [r.replica_id for r in replicas] == [0, 2]
        assert victim not in replicas
        rebuilt = replicas[-1]
        # Three fresh spares, the array's last three in order; its
        # indexes sit on them, spread as the donor's are.
        assert rebuilt.span.devices == sim.array.devices[-3:]
        placed = {id(i.disk) for i in rebuilt.wave.bindings.values()}
        assert placed <= {id(d) for d in rebuilt.span.devices}
        assert len(placed) > 1
        _assert_matches_twin(sim, twin)

    def test_each_spare_is_made_with_the_array_index_it_occupies(self):
        calls = []
        sim = ClusterSimulation(
            lambda: scheme_by_name("REINDEX")(W, N),
            make_store(LAST),
            queries=_workload(),
            cluster=ClusterConfig(
                n_shards=1,
                replication=2,
                devices_per_replica=3,
                selfheal=SelfHealConfig(),
            ),
            device_factory=lambda i: calls.append(i)
            or FaultyDisk(injector=FaultInjector()),
        )
        sim.run_start()
        sim.shards[0].replicas[1].device.injector.fail_device()
        for day in range(W + 1, LAST + 1):
            sim.run_transition(day)
            assert_bytes_conserved(sim)
        assert sim.result.total_rebuilds() == 1
        # One acquisition of three spares: each is made for the slot it
        # is appended to, not all for the first.
        assert calls == [0, 1, 2, 3, 4, 5, 6, 7, 8]
        assert len(sim.array.devices) == 9

    def test_rebuild_contends_on_the_cluster_timeline(self):
        injectors = {}
        sim = _build(selfheal=SelfHealConfig(), injectors=injectors)
        sim.run_start()
        victim = sim.shards[0].primary
        victim.device.injector.fail_device()
        sim.run_transition(W + 1)  # kill observed, replica retired
        assert_bytes_conserved(sim)
        stats = sim.run_transition(W + 2)  # rebuild day
        assert_bytes_conserved(sim)
        assert stats.rebuilds == 1
        (span,) = stats.rebuild_spans
        assert span > 0.0
        assert stats.rebuild_seconds == pytest.approx(span)
        # The donor fed the copy before starting its own maintenance,
        # so the rebuild stretches the day rather than hiding for free.
        assert stats.makespan_seconds >= span

    def test_aborted_rebuild_retries_with_a_fresh_spare_next_day(self):
        dead_spares_served = []

        def spare_factory(ordinal):
            injector = FaultInjector()
            if ordinal == 0:
                injector.fail_device()  # first spare is dead on arrival
            dead_spares_served.append(ordinal)
            return FaultyDisk(injector=injector)

        injectors = {}
        sim = _build(
            selfheal=SelfHealConfig(spare_factory=spare_factory),
            injectors=injectors,
        )
        twin = _build()
        sim.run_start()
        twin.run_start()
        victim = sim.shards[0].primary
        victim.device.injector.fail_device()
        for day in range(W + 1, LAST + 1):
            sim.run_transition(day)
            assert_bytes_conserved(sim)
            twin.run_transition(day)
        # Day one of healing aborted on the dead spare (donor intact),
        # day two succeeded on a fresh one.
        assert sim.result.total_rebuilds_failed() == 1
        assert sim.result.total_rebuilds() == 1
        assert len(dead_spares_served) == 2
        assert len(sim.shards[0].replicas) == 2
        assert sim.obs.counters()["cluster.heal.rebuilds_failed"] == 1
        _assert_matches_twin(sim, twin)

    def test_crash_mid_rebuild_rolls_forward_same_day(self):
        def spare_factory(ordinal):
            return FaultyDisk(
                injector=FaultInjector(crash=CrashPoint(after_ios=2))
            )

        injectors = {}
        sim = _build(
            selfheal=SelfHealConfig(spare_factory=spare_factory),
            injectors=injectors,
        )
        twin = _build()
        sim.run_start()
        twin.run_start()
        victim = sim.shards[0].primary
        victim.device.injector.fail_device()
        for day in range(W + 1, LAST + 1):
            sim.run_transition(day)
            assert_bytes_conserved(sim)
            twin.run_transition(day)
        # The crash cost a recovery pass, not the rebuild: the spare's
        # disk state survived, the copy swept and rolled forward.
        counters = sim.obs.counters()
        assert counters["cluster.heal.rebuild_crash_recoveries"] >= 1
        assert sim.result.total_rebuilds() == 1
        assert sim.result.total_rebuilds_failed() == 0
        assert len(sim.shards[0].replicas) == 2
        _assert_matches_twin(sim, twin)

    def test_acceptance_one_kill_per_shard_k4_r2(self):
        injectors = {}
        sim = _build(
            n_shards=4, selfheal=SelfHealConfig(), injectors=injectors
        )
        twin = _build(n_shards=4)
        sim.run_start()
        twin.run_start()
        kill_days = {W + 1 + s: s for s in range(4)}
        for day in range(W + 1, LAST + 1):
            shard_id = kill_days.get(day)
            if shard_id is not None:
                victim = sim.shards[shard_id].primary
                victim.device.injector.fail_device()
            sim.run_transition(day)
            assert_bytes_conserved(sim)
            twin.run_transition(day)
        # Every shard lost a replica and got it back; no shard ever went
        # dark; every answer is bit-identical to the fault-free twin.
        assert sim.result.total_rebuilds() == 4
        for shard in sim.shards:
            assert len(shard.replicas) == 2
        assert all(not d.shards_unavailable for d in sim.result.days)
        assert not any(d.missing_days for d in sim.result.days)
        assert sim.result.total_queries_degraded() == 0
        _assert_matches_twin(sim, twin)


class TestServingUnderTransients:
    def test_transient_burst_opens_breaker_and_routes_around(self):
        retry = RetryPolicy(max_attempts=3)
        injectors = {}
        sim = _build(
            selfheal=SelfHealConfig(retry=retry), injectors=injectors
        )
        twin = _build()
        sim.run(LAST)
        twin.run(LAST)
        flaky = sim.shards[0].primary
        flaky.device.injector.transient_read_rate = 1.0
        probes, scan = _final_answers(sim)
        # The flaky replica exhausted its retry budget; the healthy one
        # answered in full — no degradation, no divergence.
        twin_probes, twin_scan = _final_answers(twin)
        for mine, theirs in zip(probes, twin_probes):
            assert sorted(mine.record_ids) == sorted(theirs.record_ids)
            assert mine.missing_days == frozenset()
        assert sorted(e.record_id for e in scan.entries) == sorted(
            e.record_id for e in twin_scan.entries
        )
        monitor = sim._monitor
        counters = sim.obs.counters()
        assert counters["cluster.heal.transients"] > 0
        assert counters["cluster.heal.breaker_opens"] >= 1
        assert counters["cluster.heal.retries"] > 0
        assert monitor.max_op_retries <= retry.max_attempts - 1
        assert probes.summary.aborted_seconds > 0.0
        # The flaky replica is quarantined, not retired — transients are
        # not a death sentence.
        assert flaky in sim.shards[0].replicas
        assert flaky.health.state in (
            BreakerState.OPEN,
            BreakerState.HALF_OPEN,
        )

    def test_recovered_replica_closes_its_breaker(self):
        retry = RetryPolicy(max_attempts=3)
        injectors = {}
        sim = _build(
            selfheal=SelfHealConfig(retry=retry), injectors=injectors
        )
        sim.run(LAST)
        flaky = sim.shards[0].primary
        flaky.device.injector.transient_read_rate = 1.0
        _final_answers(sim)
        monitor = sim._monitor
        assert sim.obs.counters()["cluster.heal.breaker_opens"] >= 1
        # The device heals; after the cooldown the next request probes
        # the half-open breaker, succeeds, and the replica is live again.
        flaky.device.injector.transient_read_rate = 0.0
        monitor.now += 1000.0
        probes, _scan = _final_answers(sim)
        assert flaky.health.state is BreakerState.LIVE
        assert sim.obs.counters()["cluster.heal.breaker_closes"] >= 1
        assert probes.summary.missing_days == frozenset()

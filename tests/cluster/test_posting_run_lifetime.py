"""Posting runs in a cluster: one store per shard, one set of runs.

The ``r`` executors of a shard share the shard's record store, so a day
is posted once per shard however many replicas rebuild from it — and a
replica re-created by the healer finds the donor's runs alive.  After
every turn the live runs are exactly those held by the replicas'
indexes: nothing a dropped or mutated index held survives it.
"""

import gc

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation, SelfHealConfig
from repro.core.schemes import scheme_by_name
from repro.index.updates import UpdateTechnique
from repro.storage.faults import FaultInjector, FaultyDisk
from tests.conftest import make_store

W, N, SHARDS = 8, 2, 2
LAST = 4 * W


def build(scheme, technique, replication, *, selfheal=None, injectors=None):
    def factory(i):
        disk = FaultyDisk(injector=FaultInjector())
        if injectors is not None:
            injectors[i] = disk.injector
        return disk

    return ClusterSimulation(
        lambda: scheme_by_name(scheme)(W, N),
        make_store(LAST),
        technique=technique,
        cluster=ClusterConfig(
            n_shards=SHARDS,
            replication=replication,
            partitioner="hash",
            selfheal=selfheal,
        ),
        device_factory=factory,
    )


def assert_live_runs_are_held(sim):
    """Per shard: live runs == runs held by its replicas' bound indexes
    (a retired replica's indexes are never dropped and count too).
    Return the days alive replicas hold, per shard."""
    gc.collect()
    alive_days = []
    for shard in sim.shards:
        held, alive = set(), set()
        for replica in shard.replicas:
            for index in replica.wave.bindings.values():
                days = {run.day for run in index._runs}
                if days:
                    assert index.packed and days == index.time_set
                held |= days
                if not replica.failed:
                    alive |= days
        assert sorted(shard.store._runs.keys()) == sorted(held)
        alive_days.append(sorted(alive))
    return alive_days


@pytest.mark.parametrize("replication", [1, 2])
def test_reindex_turn_posts_one_run_per_shard(posted, replication):
    sim = build("REINDEX", UpdateTechnique.SIMPLE_SHADOW, replication)
    sim.run_start()
    assert len(posted) == len({id(b) for b in posted}) == SHARDS * W
    for day in range(W + 1, LAST + 1):  # 3·W transitions
        del posted[:]
        sim.run_transition(day)
        assert [b.day for b in posted] == [day] * SHARDS
        assert len({id(b) for b in posted}) == SHARDS
        window = list(range(day - W + 1, day + 1))
        assert assert_live_runs_are_held(sim) == [window] * SHARDS


def test_del_in_place_cluster_holds_nothing_after_one_cycle():
    sim = build("DEL", UpdateTechnique.IN_PLACE, 2)
    sim.run_start()
    for day in range(W + 1, 2 * W + 1):
        sim.run_transition(day)
        assert_live_runs_are_held(sim)
    assert assert_live_runs_are_held(sim) == [[]] * SHARDS


def test_rebuilt_replica_shares_the_shards_runs(posted):
    injectors = {}
    sim = build(
        "REINDEX",
        UpdateTechnique.SIMPLE_SHADOW,
        2,
        selfheal=SelfHealConfig(),
        injectors=injectors,
    )
    sim.run_start()
    victim = sim.shards[0].primary
    injectors[victim.device_index].fail_device()
    for day in range(W + 1, 2 * W + 1):
        del posted[:]
        sim.run_transition(day)
        # Retirement, copy + catch-up on the spare: still one run per
        # shard per day, and the survivors hold exactly the window.  On
        # the kill day the victim posts the day, its device refuses the
        # build, the run dies with the attempt and the survivor re-posts.
        extra = 1 if day == W + 1 else 0
        assert [b.day for b in posted] == [day] * (SHARDS + extra)
        window = list(range(day - W + 1, day + 1))
        assert assert_live_runs_are_held(sim) == [window] * SHARDS
    assert sim.result.total_rebuilds() == 1
    assert len(sim.shards[0].alive_replicas()) == 2
    # The retired replica's wave is never touched again: what it holds is
    # what it held when it died, and nothing else outlives the window.
    retired_days = {
        run.day
        for index in victim.wave.bindings.values()
        for run in index._runs
    }
    assert retired_days <= set(range(1, W + 2))

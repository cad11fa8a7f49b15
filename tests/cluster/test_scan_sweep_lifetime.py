"""Scan sweeps in a cluster: a sweep belongs to one constituent object.

Every way the cluster tier makes a replica — the healer's rebuild, a
cross-device move, a split's children — copies buckets into new
``ConstituentIndex`` objects, so the copies start without a sweep even
when the source had one cached, build their own on their first scan, and
answer exactly as a twin cluster nothing happened to.
"""

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    ElasticConfig,
    SelfHealConfig,
)
from repro.core.schemes import scheme_by_name
from repro.index.updates import UpdateTechnique
from repro.storage.faults import FaultInjector, FaultyDisk
from tests.cluster.test_elastic import int_store

W, N, LAST = 6, 2, 10
BATCH = [(LAST - W + 1, LAST), (LAST, LAST), (LAST - 3, LAST - 1), (LAST, LAST)]


def build(*, replication=1, selfheal=None, elastic=None, injectors=None):
    def factory(i):
        disk = FaultyDisk(injector=FaultInjector())
        if injectors is not None:
            injectors[i] = disk.injector
        return disk

    return ClusterSimulation(
        lambda: scheme_by_name("DEL")(W, N),
        int_store(LAST),
        technique=UpdateTechnique.IN_PLACE,
        cluster=ClusterConfig(
            n_shards=2,
            replication=replication,
            partitioner="range",
            range_splits=(300,),
            selfheal=selfheal,
            elastic=elastic,
        ),
        device_factory=factory,
    )


def warm(sim, day):
    """Scan every alive replica directly: each constituent caches a sweep."""
    for shard in sim.shards:
        for replica in shard.alive_replicas():
            replica.wave.scan_many([(day - W + 1, day)])
            assert all(ix._sweep is not None for ix in replica.wave.bindings.values())


def cached(replica):
    return [ix._sweep is not None for ix in replica.wave.bindings.values()]


def answers(sim):
    """Entries per request, order-free: topologies merge in shard order."""
    batch = sim.coordinator.scan_many(BATCH)
    assert not any(r.missing_days for r in batch.results)
    return [(sorted(r.entries), r.covered_days) for r in batch.results]


def test_rebuilt_replica_starts_without_a_sweep():
    injectors = {}
    sim = build(replication=2, selfheal=SelfHealConfig(), injectors=injectors)
    twin = build(replication=2, selfheal=SelfHealConfig())
    for s in (sim, twin):
        s.run_start()
        warm(s, W)
    shard = sim.shards[0]
    victim = shard.primary
    (survivor,) = [r for r in shard.replicas if r is not victim]
    injectors[victim.device_index].fail_device()
    for s in (sim, twin):
        s.run_transition(W + 1)  # the victim is retired...
        warm(s, W + 1)
        s.run_transition(W + 2)  # ...and re-created from the survivor
    assert sim.result.total_rebuilds() == 1
    (rebuilt,) = [r for r in shard.alive_replicas() if r is not survivor]
    # The donor kept the sweep of the constituent the day did not touch;
    # the copy of that same constituent has none.
    assert sorted(cached(survivor)) == [False, True]
    assert cached(rebuilt) == [False, False]
    for day in range(W + 3, LAST + 1):
        for s in (sim, twin):
            s.run_transition(day)
    assert answers(sim) == answers(twin)
    # Asked directly (the coordinator may route to either): the copy was
    # laid out afresh, so order and transfer size are its own.
    for mine, theirs in zip(
        rebuilt.wave.scan_many(BATCH).results, survivor.wave.scan_many(BATCH).results
    ):
        assert sorted(mine.entries) == sorted(theirs.entries)
        assert mine.covered_days == theirs.covered_days
    assert all(cached(rebuilt))


def test_moved_replica_starts_without_a_sweep():
    sim, twin = build(), build()
    for s in (sim, twin):
        s.run(LAST)
        warm(s, LAST)
    replica = sim.shards[0].primary
    sources = list(replica.wave.bindings.values())
    sim.rebalance_shard(0, to_device=1)
    assert all(ix.dropped and ix._sweep is None for ix in sources)
    assert cached(replica) == [False, False]
    assert answers(sim) == answers(twin)
    assert all(cached(replica))


def test_split_children_start_without_a_sweep():
    sim = build(elastic=ElasticConfig(autoscale=False))
    twin = build()
    for s in (sim, twin):
        s.run_start()
        for day in range(W + 1, LAST):
            s.run_transition(day)
        warm(s, LAST - 1)
    parents = {id(r) for shard in sim.shards for r in shard.replicas}
    sim.request_split(0)
    for s in (sim, twin):
        s.run_transition(LAST)
    assert len(sim.shards) == 3 and sim.result.days[-1].reshards == 1
    children = [
        r for shard in sim.shards for r in shard.replicas if id(r) not in parents
    ]
    assert len(children) == 2
    for child in children:
        assert cached(child) == [False, False]
    assert answers(sim) == answers(twin)

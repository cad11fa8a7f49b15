"""Scan sweeps in a cluster: a sweep belongs to one constituent object.

Every way the cluster tier makes a replica — the healer's rebuild, a
cross-device move, a split's children — copies buckets into new
``ConstituentIndex`` objects, so the copies start without a sweep even
when the source had one cached, build their own on their first scan, and
answer exactly as a twin cluster nothing happened to.  A sweep's day runs
share its lifetime: a merged answer cut from them outlives the turn that
drops them, and nothing but the sweep's owner ever drops them.
"""

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    ElasticConfig,
    SelfHealConfig,
)
from repro.core.schemes import scheme_by_name
from repro.index import codec
from repro.index.bucket import PackedLayout
from repro.index.updates import UpdateTechnique
from repro.serve.protocol import result_to_wire
from repro.storage.faults import FaultInjector, FaultyDisk
from tests.cluster.test_elastic import int_store

W, N, LAST = 6, 2, 10
BATCH = [(LAST - W + 1, LAST), (LAST, LAST), (LAST - 3, LAST - 1), (LAST, LAST)]


def build(*, replication=1, selfheal=None, elastic=None, injectors=None, per_day=10):
    def factory(i):
        disk = FaultyDisk(injector=FaultInjector())
        if injectors is not None:
            injectors[i] = disk.injector
        return disk

    return ClusterSimulation(
        lambda: scheme_by_name("DEL")(W, N),
        int_store(LAST, per_day=per_day),
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
        for replica in shard.replicas:
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
    victim.device.injector.fail_device()
    for s in (sim, twin):
        s.run_transition(W + 1)  # the victim is retired...
        warm(s, W + 1)
        s.run_transition(W + 2)  # ...and re-created from the survivor
    assert sim.result.total_rebuilds() == 1
    (rebuilt,) = [r for r in shard.replicas if r is not survivor]
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


# ----------------------------------------------------------------------
# Day runs: kept beside the sweep, dropped with it
# ----------------------------------------------------------------------


#: Values repeat within a constituent, so its buckets interleave days.
DENSE = 120


def day_runs(replica):
    return [
        sorted(ix._sweep._day_runs) if ix._sweep is not None else None
        for ix in replica.wave.bindings.values()
    ]


def test_a_scan_result_held_across_a_turn_still_reads_its_day():
    sim, twin = build(per_day=DENSE), build(per_day=DENSE)
    for s in (sim, twin):
        s.run(LAST - 1)
    day = LAST - W + 2  # shares a constituent with the day about to expire
    held = sim.coordinator.scan(day, day)
    again = sim.coordinator.scan(day, day)
    # Cut from the day's runs, one per shard, and cut from the same ones twice.
    assert held.parts and len(held.parts) == len(sim.shards)
    assert all(run.lo == run.hi == day for run, _, _ in held.parts)
    assert [id(run) for run, _, _ in again.parts] == [id(run) for run, _, _ in held.parts]
    copy = (tuple(held.entries), result_to_wire(held)["entries"])
    sim.run_transition(LAST)  # in place: that constituent is written to
    assert (tuple(held.entries), result_to_wire(held)["entries"]) == copy
    assert copy[1] == codec.encode_entries_object(held.entries)
    assert all(e.day == day for e in held.entries)
    fresh = sim.coordinator.scan(day, day)
    assert fresh.entries == held.entries and fresh.parts
    assert not {id(run) for run, _, _ in fresh.parts} & {
        id(run) for run, _, _ in held.parts
    }
    twin.run_transition(LAST)
    assert answers(sim) == answers(twin)


def test_every_mutating_op_drops_every_day_run():
    sim = build(per_day=DENSE)
    sim.run(LAST)
    replica = sim.shards[0].primary
    wave = replica.wave

    def fill():
        days = sorted(wave.covered_days())
        wave.scan_many([(d, d) for d in days])
        kept = day_runs(replica)
        assert all(kept) and sorted(d for ds in kept for d in ds) == days
        return list(wave.bindings.values())

    (first, second) = fill()
    first.delete_days([min(first.time_set)])
    assert first._sweep is None and second._sweep is not None
    fill()
    second.insert_postings({}, [])
    assert second._sweep is None
    first, second = fill()
    layout = PackedLayout.of(
        [{b.value: b.entries for b in first.buckets()}], first.config.entry_size_bytes
    )
    first._adopt_packed(first.disk.allocate(first.used_bytes), layout, first.time_set)
    assert first._sweep is None
    held = second._sweep
    runs = dict(held._day_runs)
    second.drop()
    assert second._sweep is None
    # What a reader still holds is whole.
    assert held._day_runs == runs and all(
        run.entries == tuple(e for e in held.entries if e.day == d)
        for d, run in runs.items()
    )


def test_a_sweep_never_holds_more_day_runs_than_distinct_days():
    sim = build(per_day=DENSE)
    sim.run(LAST)
    specs = [
        (t1, t2)
        for t1 in range(LAST - W, LAST + 2)
        for t2 in range(t1, LAST + 2)
    ]
    for _ in range(2):
        sim.coordinator.scan_many(specs)
    seen = 0
    for shard in sim.shards:
        for ix in shard.primary.wave.bindings.values():
            sweep = ix._sweep
            assert set(sweep._day_runs) <= set(sweep.distinct) <= ix.time_set
            seen += len(sweep._day_runs)
    assert seen

"""Bucket runs in a cluster: a run belongs to one bucket object.

Every way the cluster tier makes a replica — the healer's rebuild, a
cross-device move, a split's children — copies entries into new
``Bucket`` objects, so the copies start without runs (and without the
encoded bytes a run may carry) even when every source bucket had one,
build their own on their first probe, and answer — entries and wire
blocks — exactly as a twin cluster nothing happened to.
"""

from repro.cluster import ElasticConfig, SelfHealConfig
from repro.index import codec
from repro.serve.protocol import result_to_wire
from tests.cluster.test_elastic import DOMAIN
from tests.cluster.test_scan_sweep_lifetime import LAST, W, build

PROBES = [
    (value, t1, t2)
    for value in range(1, DOMAIN + 1)
    for t1, t2 in ((LAST - W + 1, LAST), (LAST - 2, LAST - 1))
]


def buckets(replica):
    return [b for ix in replica.wave.bindings.values() for b in ix.buckets()]


def warm(sim, day):
    """Probe every value on every alive replica and frame the answers:
    each live bucket ends up with a run, and the run with its bytes."""
    for shard in sim.shards:
        for replica in shard.replicas:
            values = sorted({b.value for b in buckets(replica)})
            batch = replica.wave.probe_many([(v, day - W + 1, day) for v in values])
            for result in batch.results:
                result_to_wire(result)
            assert all(b._run is not None for b in buckets(replica))
            assert all(b._run.records() is not None for b in buckets(replica))


def runs(replica):
    return [b._run is not None for b in buckets(replica)]


def answers(sim):
    batch = sim.coordinator.probe_many(PROBES)
    assert not any(r.missing_days for r in batch.results)
    blocks = [result_to_wire(r)["entries"] for r in batch.results]
    for result, block in zip(batch.results, blocks):
        assert block == codec.encode_entries_object(result.entries)
    assert sum(len(r.entries) for r in batch.results) > 50
    return [(sorted(r.entries), r.covered_days) for r in batch.results]


def test_rebuilt_replica_starts_without_runs():
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
    # The donor kept the runs of the buckets the day did not write to;
    # the copies of those same buckets have none.
    assert any(runs(survivor)) and not all(runs(survivor))
    assert not any(runs(rebuilt))
    for day in range(W + 3, LAST + 1):
        for s in (sim, twin):
            s.run_transition(day)
    assert answers(sim) == answers(twin)
    warm(sim, LAST)
    assert all(runs(rebuilt))


def test_moved_replica_starts_without_runs():
    sim, twin = build(), build()
    for s in (sim, twin):
        s.run(LAST)
        warm(s, LAST)
    replica = sim.shards[0].primary
    held = [b._run for b in buckets(replica)]
    sim.rebalance_shard(0, to_device=1)
    assert not any(runs(replica))
    assert answers(sim) == answers(twin)
    assert any(runs(replica))
    # What a reader still held of the dropped source is whole.
    assert all(run.records() is not None for run in held)


def test_split_children_start_without_runs():
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
        assert buckets(child) and not any(runs(child))
    assert answers(sim) == answers(twin)

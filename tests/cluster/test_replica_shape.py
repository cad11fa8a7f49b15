"""Every replica has one shape, however it was made.

The first build, a split's children, a retune and the healer's rebuild
each make replicas; all of them hold a planner, a plain ``PlanExecutor``
and a view of the cluster's source store, so no reshard lays down a
store of its own and no ``Record`` outlives the source's.
"""

import gc

from repro.advisor import AdvisorConfig
from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    ElasticConfig,
    SelfHealConfig,
)
from repro.cluster.partitioner import ShardView
from repro.core.executor import PlanExecutor
from repro.core.records import Record
from repro.core.schemes import scheme_by_name
from repro.core.schemes.base import WaveScheme
from repro.sim.querygen import QueryWorkload, uniform_key_picker
from repro.storage.faults import FaultInjector, FaultyDisk
from tests.advisor.helpers import make_int_store

W = 6
LAST = W + 10


def _live_records() -> int:
    gc.collect()
    return sum(type(o) is Record for o in gc.get_objects())


def test_split_retune_and_rebuild_leave_one_replica_shape():
    before = _live_records()
    store = make_int_store(LAST, domain=16, seed=3)
    source_records = sum(len(store.batch(day).records) for day in store.days)
    injectors = {}

    def device(index):
        disk = FaultyDisk(injector=FaultInjector())
        injectors[index] = disk.injector
        return disk

    sim = ClusterSimulation(
        lambda: scheme_by_name("DEL")(W, W),
        store,
        # Probe-heavy traffic against DEL/6: the advisor retunes.
        queries=QueryWorkload(
            probes_per_day=200, value_picker=uniform_key_picker(16), seed=5
        ),
        cluster=ClusterConfig(
            n_shards=2,
            replication=2,
            maintenance="lockstep",
            partitioner="range",
            range_splits=(8,),
            advisor=AdvisorConfig(
                observe_days=1, cooldown_days=30, amortization_days=30
            ),
            elastic=ElasticConfig(autoscale=False, min_shards=1),
            selfheal=SelfHealConfig(),
        ),
        device_factory=device,
    )
    sim.request_split(0)
    sim.run_start()
    for day in range(W + 1, LAST + 1):
        if day == W + 8:
            victim = sim.shards[-1].replicas[1]
            injectors[victim.device_index].fail_device()
        sim.run_transition(day)
    days = sim.result.days
    assert sum(d.reshards for d in days) == 1
    assert sum(d.retunes for d in days) >= 1
    assert sum(d.rebuilds for d in days) == 1

    for shard in sim.shards:
        assert isinstance(shard.store, ShardView)
        assert shard.store._split.source is sim.store
        for replica in shard.replicas:
            assert type(replica.executor) is PlanExecutor, replica.name
            assert isinstance(replica.scheme, WaveScheme)
            assert replica.executor.store is shard.store
    assert _live_records() - before <= source_records

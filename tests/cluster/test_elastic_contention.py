"""Self-healing vs. elastic resharding: who goes first.

Replica rebuilds and topology changes both provision fresh devices.  The
contention rule is deterministic: the elastic engine runs first each day
but *defers* whenever any shard is under-replicated, so on a contended
day the rebuild runs and the topology change retries the next day —
redundancy outranks rebalancing.
"""

import random

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    ElasticConfig,
    SelfHealConfig,
)
from repro.core.records import Record, RecordStore
from repro.core.schemes import scheme_by_name
from repro.sim.querygen import QueryWorkload, uniform_key_picker
from repro.storage.faults import FaultInjector, FaultyDisk

WINDOW = 4
N_INDEXES = 2
DOMAIN = 600
SPLITS = (200, 400)


def int_store(last_day: int, *, per_day: int = 10, seed: int = 5) -> RecordStore:
    rng = random.Random(seed)
    store = RecordStore()
    rid = 0
    for day in range(1, last_day + 1):
        records = [
            Record(rid := rid + 1, day, (rng.randint(1, DOMAIN),), nbytes=60)
            for _ in range(per_day)
        ]
        store.add_records(day, records)
    return store


def make_sim(store: RecordStore, *, elastic: ElasticConfig) -> ClusterSimulation:
    scheme_cls = scheme_by_name("REINDEX")
    serial = [0]

    def device(_: int) -> FaultyDisk:
        serial[0] += 1
        return FaultyDisk(injector=FaultInjector(700 + serial[0]))

    return ClusterSimulation(
        lambda: scheme_cls(WINDOW, N_INDEXES),
        store,
        queries=QueryWorkload(
            probes_per_day=6,
            value_picker=uniform_key_picker(DOMAIN),
            seed=17,
        ),
        cluster=ClusterConfig(
            n_shards=3,
            replication=2,
            partitioner="range",
            range_splits=SPLITS,
            elastic=elastic,
            selfheal=SelfHealConfig(),
        ),
        device_factory=device,
    )


def run_to(sim: ClusterSimulation, day: int) -> None:
    sim.run_start()
    for d in range(WINDOW + 1, day + 1):
        sim.run_transition(d)


class TestHealerWins:
    def test_under_replication_defers_the_split_until_healed(self):
        sim = make_sim(
            int_store(WINDOW + 3), elastic=ElasticConfig(autoscale=False)
        )
        run_to(sim, WINDOW + 1)
        # A replica dies and a split is queued for the same day.
        shard = sim.shards[1]
        shard.retire(shard.replicas[1], sim._monitor, reason="device-failure")
        sim.request_split(1)
        stats = sim.run_transition(WINDOW + 2)
        # The rebuild ran; the topology change waited its turn.
        assert stats.rebuilds == 1
        assert stats.reshards == 0
        assert stats.reshard_deferred == "under-replicated"
        assert stats.n_shards == 3
        assert [c.kind for c in sim.changes] == ["split"]
        assert sim.obs.counters()["cluster.elastic.deferred"] == 1
        # Fully replicated again: the split lands the next day.
        follow = sim.run_transition(WINDOW + 3)
        assert follow.reshards == 1
        assert follow.n_shards == 4
        assert sim.changes == []
        # Nobody went dark while the two subsystems took turns.
        assert all(
            not d.shards_unavailable
            for d in sim.result.days
        )

    def test_healthy_cluster_runs_the_split_immediately(self):
        sim = make_sim(
            int_store(WINDOW + 2), elastic=ElasticConfig(autoscale=False)
        )
        run_to(sim, WINDOW + 1)
        sim.request_split(1)
        stats = sim.run_transition(WINDOW + 2)
        assert stats.reshards == 1
        assert stats.reshard_deferred is None

"""A day ingested after the cluster was built is every shard's day.

A shard's store is a view of the source store, so ``store.add_records``
after ``ClusterSimulation(...)`` reaches every shard the way it always
reached the ``k = 1`` identity store.  The late-day cluster must be the
cluster built with all days up front: same answers, same simulated
clock, same high-water mark.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.core.records import RecordStore
from repro.core.schemes import scheme_by_name
from repro.index.updates import UpdateTechnique
from tests.conftest import make_store

W, N = 7, 2
LAST = W + 3
VALUES = "abcdefghijkl"


def build(store, scheme, technique, n_shards):
    return ClusterSimulation(
        lambda: scheme_by_name(scheme)(W, N),
        store,
        technique=technique,
        cluster=ClusterConfig(n_shards=n_shards, partitioner="hash"),
    )


@pytest.mark.parametrize(
    "scheme, technique",
    [("DEL", UpdateTechnique.IN_PLACE), ("REINDEX", UpdateTechnique.SIMPLE_SHADOW)],
)
@pytest.mark.parametrize("n_shards", [1, 3])
def test_a_cluster_turns_days_ingested_after_it_was_built(scheme, technique, n_shards):
    full = make_store(LAST, values=VALUES)
    late = RecordStore()
    for day in range(1, W + 1):
        late.add_batch(full.batch(day))
    sim = build(late, scheme, technique, n_shards)
    twin = build(full, scheme, technique, n_shards)
    sim.run_start()
    twin.run_start()
    for day in range(W + 1, LAST + 1):
        late.add_batch(full.batch(day))
        sim.run_transition(day)
        twin.run_transition(day)
        lo = day - W + 1
        probes = [(value, t1, day) for value in VALUES for t1 in (lo, day)]
        answers = sim.coordinator.probe_many(probes)
        assert answers == twin.coordinator.probe_many(probes)
        assert [sorted(r.entries) for r in answers] == [
            sorted(full.brute_probe(*probe)) for probe in probes
        ]
        scans = [(lo, day), (day, day)]
        assert sim.coordinator.scan_many(scans) == twin.coordinator.scan_many(scans)
        assert sim.array.total_clock == twin.array.total_clock
        assert sim.array.high_water_bytes == twin.array.high_water_bytes
        assert sim.array.io_snapshot() == twin.array.io_snapshot()

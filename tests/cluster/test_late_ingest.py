"""A day ingested after the cluster was built is every shard's day.

A shard's store is a view of the source store, so ``store.add_records``
after ``ClusterSimulation(...)`` reaches every shard the way it always
reached the ``k = 1`` identity store.  The late-day cluster must be the
cluster built with all days up front: same answers, same simulated
clock, same high-water mark.  A split's children are views of the
source store too, so a day added after the split is theirs as well.
"""

import random

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation, ElasticConfig
from repro.core.oracle import battery
from repro.core.records import Record, RecordStore
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


def test_a_day_ingested_after_a_split_is_the_childrens_day():
    rng = random.Random(5)
    full = RecordStore()
    rid = 0
    for day in range(1, 8):
        full.add_records(day, [
            Record(
                rid := rid + 1,
                day,
                tuple(rng.randint(1, 399) for _ in range(rng.randint(1, 4))),
                nbytes=10,
            )
            for _ in range(10)
        ])
    late = RecordStore()
    for day in range(1, 7):
        late.add_batch(full.batch(day))

    def split_at_day_6(store):
        sim = ClusterSimulation(
            lambda: scheme_by_name("REINDEX")(4, 2),
            store,
            cluster=ClusterConfig(
                n_shards=2,
                partitioner="range",
                range_splits=(200,),
                elastic=ElasticConfig(autoscale=False),
            ),
        )
        sim.run_start()
        sim.run_transition(5)
        sim.request_split(0, split_key=150)
        assert sim.run_transition(6).reshards == 1
        return sim

    sim = split_at_day_6(late)
    twin = split_at_day_6(full)
    late.add_batch(full.batch(7))
    sim.run_transition(7)
    twin.run_transition(7)
    values = sorted(
        {v for day in full.days for r in full.batch(day).records for v in r.values}
    )
    probes = [(value, t1, 7) for value in values for t1 in (4, 7)]
    scans = [(4, 7), (7, 7)]
    assert battery(sim.coordinator, probes, scans) == battery(
        twin.coordinator, probes, scans
    )
    answers = sim.coordinator.probe_many(probes).results
    assert [sorted(r.entries) for r in answers] == [
        sorted(full.brute_probe(*probe)) for probe in probes
    ]

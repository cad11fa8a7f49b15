"""Single-shard equivalence guarantee of the cluster simulation.

A ``k=1, r=1`` cluster with lockstep maintenance is the serialized driver
wearing a coordinator hat: one store (the partition is the identity), one
device, one scheme instance, maintenance from time zero, queries served
in order after it.  The driver it replaced is kept as the oracle
(``tests/reference/serialized.py``), and this suite pins the cluster to
it *bit for bit* over every scheme and technique — every ``DayMetrics``
and every probe and scan answer.  The cluster benchmark's scaling claims
are only meaningful if the k=1 baseline is the very same simulator.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation, run_cluster_simulation
from repro.core.schemes import scheme_by_name
from repro.index.updates import UpdateTechnique
from repro.sim.querygen import QueryWorkload
from tests.conftest import make_store
from tests.reference.serialized import Simulation


def serialized_run(scheme_factory, store, *, last_day, **kwargs):
    """Run the reference serialized driver; return its result."""
    return Simulation(scheme_factory(), store, **kwargs).run(last_day)

ALL_CLI_SCHEMES = (
    "DEL",
    "REINDEX",
    "REINDEX+",
    "REINDEX++",
    "WATA*",
    "RATA*",
    "WATA(table4)",
)

#: One shard, one replica, everything-at-once maintenance: the
#: serialized driver's world.
SINGLE = ClusterConfig(n_shards=1, replication=1, maintenance="lockstep")


def _workload() -> QueryWorkload:
    return QueryWorkload(
        probes_per_day=5,
        scans_per_day=2,
        value_picker=lambda rng: rng.choice("abcdefgh"),
        seed=3,
    )


class TestSingleShardEquivalence:
    @pytest.mark.parametrize("name", ALL_CLI_SCHEMES)
    def test_every_scheme_reproduces_serialized_result(self, name):
        W, n, last = 10, 4, 16
        scheme_cls = scheme_by_name(name)
        serialized = serialized_run(
            lambda: scheme_cls(W, n),
            make_store(last),
            last_day=last,
            queries=_workload(),
        )
        cluster = run_cluster_simulation(
            lambda: scheme_cls(W, n),
            make_store(last),
            last_day=last,
            queries=_workload(),
            cluster=SINGLE,
        )
        assert cluster.n_shards == 1
        assert cluster.shard_results[0] == serialized

    @pytest.mark.parametrize(
        "technique",
        [
            UpdateTechnique.IN_PLACE,
            UpdateTechnique.SIMPLE_SHADOW,
            UpdateTechnique.PACKED_SHADOW,
        ],
    )
    def test_equivalence_holds_per_technique(self, technique):
        W, n, last = 8, 2, 13
        scheme_cls = scheme_by_name("DEL")
        serialized = serialized_run(
            lambda: scheme_cls(W, n),
            make_store(last),
            last_day=last,
            technique=technique,
            queries=_workload(),
        )
        cluster = run_cluster_simulation(
            lambda: scheme_cls(W, n),
            make_store(last),
            last_day=last,
            technique=technique,
            queries=_workload(),
            cluster=SINGLE,
        )
        assert cluster.shard_results[0] == serialized

    def test_equivalence_without_queries(self):
        W, n, last = 8, 3, 12
        scheme_cls = scheme_by_name("REINDEX+")
        serialized = serialized_run(
            lambda: scheme_cls(W, n), make_store(last), last_day=last
        )
        cluster = run_cluster_simulation(
            lambda: scheme_cls(W, n),
            make_store(last),
            last_day=last,
            cluster=SINGLE,
        )
        assert cluster.shard_results[0] == serialized

    def test_query_results_match_single_index_probes(self):
        # Beyond costs: the coordinator's answers over the finished
        # cluster must equal the single wave index's answers element
        # by element.
        W, n, last = 10, 4, 16
        scheme_cls = scheme_by_name("REINDEX")
        store = make_store(last)
        single = Simulation(scheme_cls(W, n), make_store(last))
        single.run(last)
        sim = ClusterSimulation(
            lambda: scheme_cls(W, n), store, cluster=SINGLE
        )
        sim.run(last)
        lo, hi = last - W + 1, last
        probes = [(v, lo, hi) for v in "abcdefgh"]
        expected = single.wave.probe_many(probes)
        got = sim.coordinator.probe_many(probes)
        assert len(got) == len(expected)
        for mine, theirs in zip(got, expected):
            assert mine.record_ids == theirs.record_ids
            assert mine.missing_days == theirs.missing_days
        scan_mine = sim.coordinator.scan(lo, hi)
        scan_theirs = single.wave.timed_segment_scan(lo, hi)
        assert sorted(e.record_id for e in scan_mine.entries) == sorted(
            e.record_id for e in scan_theirs.entries
        )
        assert scan_mine.covered_days == scan_theirs.covered_days

    def test_staggered_single_shard_is_still_identical(self):
        # With one shard there is exactly one batch, so staggered and
        # lockstep coincide.
        W, n, last = 8, 2, 12
        scheme_cls = scheme_by_name("DEL")
        serialized = serialized_run(
            lambda: scheme_cls(W, n),
            make_store(last),
            last_day=last,
            queries=_workload(),
        )
        cluster = run_cluster_simulation(
            lambda: scheme_cls(W, n),
            make_store(last),
            last_day=last,
            queries=_workload(),
            cluster=ClusterConfig(
                n_shards=1, replication=1, maintenance="staggered"
            ),
        )
        assert cluster.shard_results[0] == serialized


TECHNIQUES = (
    UpdateTechnique.IN_PLACE,
    UpdateTechnique.SIMPLE_SHADOW,
    UpdateTechnique.PACKED_SHADOW,
)


@pytest.mark.parametrize("technique", TECHNIQUES, ids=lambda t: t.value)
@pytest.mark.parametrize("name", ALL_CLI_SCHEMES)
def test_k1_cluster_equals_the_reference_driver(name, technique):
    """Every scheme x technique: the same DayMetrics, day by day, and the
    same answers to every probe and scan of the final window."""
    W, n, last = 8, 3, 13
    scheme_cls = scheme_by_name(name)
    reference = Simulation(
        scheme_cls(W, n), make_store(last), technique=technique,
        queries=_workload(),
    )
    reference.run(last)
    sim = ClusterSimulation(
        lambda: scheme_cls(W, n), make_store(last), technique=technique,
        queries=_workload(), cluster=SINGLE,
    )
    result = sim.run(last)
    assert result.shard_results[0].days == reference.result.days
    probes = [(v, t1, last) for v in "abcdefgh" for t1 in (1, last - W + 1, last)]
    for mine, theirs in zip(
        sim.coordinator.probe_many(probes), reference.wave.probe_many(probes)
    ):
        assert mine.entries == theirs.entries
        assert mine.missing_days == theirs.missing_days
    for t1, t2 in ((last - W + 1, last), (last, last), (1, last)):
        mine = sim.coordinator.scan(t1, t2)
        theirs = reference.wave.timed_segment_scan(t1, t2)
        assert sorted(mine.entries) == sorted(theirs.entries)
        assert mine.covered_days == theirs.covered_days

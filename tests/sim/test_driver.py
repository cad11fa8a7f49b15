"""Tests for the measured simulation: the one-shard, one-device day loop."""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.core.schemes import DelScheme, ReindexScheme, WataStarScheme
from repro.errors import ClusterError
from repro.index.updates import UpdateTechnique
from repro.sim.driver import run_simulation
from repro.sim.querygen import QueryWorkload
from tests.conftest import make_store

SINGLE = ClusterConfig(n_shards=1, maintenance="lockstep")


class TestSimulation:
    def test_run_collects_daily_metrics(self):
        store = make_store(20)
        result = run_simulation(
            lambda: DelScheme(10, 2), store, last_day=16
        )
        assert result.scheme_name == "DEL"
        assert len(result.days) == 7  # start + 6 transitions
        assert result.days[0].day == 10
        assert result.days[-1].day == 16
        assert result.days[-1].covered_days == frozenset(range(7, 17))

    def test_start_must_come_first(self):
        sim = ClusterSimulation(
            lambda: DelScheme(5, 1), make_store(10), cluster=SINGLE
        )
        with pytest.raises(ClusterError):
            sim.run_transition(6)
        with pytest.raises(ClusterError):
            sim.turn(6)
        sim.run_start()
        with pytest.raises(ClusterError):
            sim.run_start()

    def test_metrics_track_space_and_time(self):
        store = make_store(20)
        result = run_simulation(
            lambda: ReindexScheme(10, 2), store, last_day=15
        )
        for metrics in result.days:
            assert metrics.seconds.total > 0
            assert metrics.steady_bytes > 0
            assert metrics.peak_bytes >= metrics.steady_bytes or (
                metrics.peak_bytes > 0
            )
        assert result.avg_transition_seconds() > 0

    def test_query_workload_measured(self):
        store = make_store(20)
        result = run_simulation(
            lambda: DelScheme(10, 2),
            store,
            last_day=14,
            queries=QueryWorkload(
                probes_per_day=5,
                scans_per_day=1,
                value_picker=lambda rng: rng.choice("abcdefgh"),
                seed=1,
            ),
        )
        steady = result.steady_days()
        assert all(d.query_seconds > 0 for d in steady)
        assert all(
            d.total_work_seconds == d.seconds.total + d.query_seconds
            for d in steady
        )

    def test_aggregates(self):
        store = make_store(30)
        result = run_simulation(
            lambda: WataStarScheme(10, 3), store, last_day=28
        )
        assert result.max_length_days() >= 10
        assert result.max_peak_bytes() > 0

    @pytest.mark.parametrize("technique", list(UpdateTechnique))
    def test_all_techniques_run_clean(self, technique):
        store = make_store(16)
        result = run_simulation(
            lambda: DelScheme(7, 2), store, last_day=14, technique=technique
        )
        assert result.technique == technique.value
        assert result.days[-1].covered_days == frozenset(range(8, 15))


class TestObservability:
    def test_page_cache_deltas_land_in_day_metrics(self):
        from repro.storage.pagecache import PageCache

        store = make_store(20)
        result = run_simulation(
            lambda: DelScheme(10, 2),
            store,
            last_day=14,
            page_cache=PageCache(1 << 20),
        )
        assert all(d.io is not None and d.cache is not None for d in result.days)
        assert result.total_cache_hits() + result.total_cache_misses() > 0
        assert sum(d.io.seeks for d in result.days) > 0

    def test_cacheless_run_records_io_but_no_cache(self):
        store = make_store(12)
        result = run_simulation(lambda: DelScheme(6, 2), store, last_day=8)
        assert all(d.cache is None for d in result.days)
        assert result.total_cache_hits() == 0
        assert all(d.io is not None for d in result.days)

    def test_registry_populated(self):
        store = make_store(12)
        sim = ClusterSimulation(
            lambda: DelScheme(6, 2),
            store,
            queries=QueryWorkload(
                probes_per_day=3,
                value_picker=lambda rng: rng.choice("abcdefgh"),
                seed=1,
            ),
            cluster=ClusterConfig(
                n_shards=1, maintenance="lockstep", page_cache_bytes=1 << 20
            ),
        )
        result = sim.run(9)
        counters = sim.obs.counters()
        assert counters["cluster.days"] == 4.0
        assert counters["cluster.queries"] == 12.0
        assert sim.obs.histogram("cluster.day.makespan_seconds").count == 4
        assert sim.latency_during.count + sim.latency_steady.count == 12
        shard = result.shard_results[0]
        assert shard.total_cache_hits() + shard.total_cache_misses() > 0

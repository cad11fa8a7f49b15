"""Tests for the overlapped configuration: one replica spanning devices.

``ClusterConfig(devices_per_replica=d)`` gives the one replica ``d``
devices; it rotates its index creations over them, and the serving pass
lays queries beside the maintenance on the shared timeline.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.core.schemes import scheme_by_name
from repro.errors import ClusterError
from repro.index.updates import UpdateTechnique
from repro.sim.querygen import QueryWorkload
from repro.sim.scheduler import OverlapPolicy
from tests.conftest import make_store


def _workload(**kwargs) -> QueryWorkload:
    defaults = dict(
        probes_per_day=6,
        scans_per_day=2,
        value_picker=lambda rng: rng.choice("abcdefgh"),
        seed=3,
    )
    defaults.update(kwargs)
    return QueryWorkload(**defaults)


def _run(scheme="REINDEX", W=10, n=4, last=16, technique=None, **config_kw):
    config = dict(n_shards=1, maintenance="lockstep", devices_per_replica=2)
    config.update(config_kw)
    scheme_cls = scheme_by_name(scheme)
    sim = ClusterSimulation(
        lambda: scheme_cls(W, n),
        make_store(last),
        technique=technique or UpdateTechnique.SIMPLE_SHADOW,
        queries=_workload(),
        cluster=ClusterConfig(**config),
    )
    sim.run(last)
    return sim


class TestOverlapConfig:
    def test_defaults_validate(self):
        config = ClusterConfig()
        assert config.devices_per_replica == 1
        assert config.policy is OverlapPolicy.WAIT
        assert ClusterConfig(n_shards=2, devices_per_replica=3).n_devices == 6

    def test_rejects_zero_devices(self):
        with pytest.raises(ClusterError):
            ClusterConfig(devices_per_replica=0)

    def test_rejects_sub_one_stretch(self):
        with pytest.raises(ClusterError):
            ClusterConfig(arrival_stretch=0.5)


class TestOverlapDayStats:
    def test_every_day_carries_the_overlay(self):
        sim = _run(devices_per_replica=3)
        assert len(sim.shards[0].primary.span) == 3
        for day in sim.result.days:
            assert day.makespan_seconds >= day.maintenance_makespan_seconds
            assert day.queries > 0

    def test_latency_split_covers_all_queries(self):
        sim = _run(devices_per_replica=3)
        total = 0
        for day in sim.result.days:
            for summary in (
                day.latency_during_transition,
                day.latency_steady_state,
            ):
                if summary is not None:
                    total += summary["count"]
                    assert summary["p95"] >= summary["p50"] >= 0
                    assert summary["p99"] >= summary["p95"]
        assert total == sim.result.total_requests()
        # The run-level histograms agree with the per-day split.
        assert (
            sim.latency_during.count + sim.latency_steady.count == total
        )

    def test_makespan_beats_serialized_total_work(self):
        # On multiple devices some query work hides under maintenance, so
        # the timeline is shorter than maintenance + queries back-to-back.
        sim = _run(scheme="REINDEX", devices_per_replica=3)
        result = sim.result
        assert result.total_makespan_seconds() < sum(
            d.total_work_seconds for d in result.shard_results[0].days
        )


class TestPolicies:
    def test_in_place_wait_records_waits(self):
        sim = _run(
            scheme="DEL",
            n=2,
            technique=UpdateTechnique.IN_PLACE,
            policy=OverlapPolicy.WAIT,
        )
        assert sum(d.queries_waited for d in sim.result.days) > 0
        assert sim.result.total_queries_degraded() == 0

    def test_in_place_degrade_reports_missing_days(self):
        sim = _run(
            scheme="DEL",
            n=2,
            technique=UpdateTechnique.IN_PLACE,
            policy=OverlapPolicy.DEGRADE,
        )
        assert sim.result.total_queries_degraded() > 0
        # Degraded answers name the days they lost.
        assert any(d.missing_days for d in sim.result.days)

    def test_degrade_leaves_wave_online_afterwards(self):
        sim = _run(
            scheme="DEL",
            n=2,
            technique=UpdateTechnique.IN_PLACE,
            policy=OverlapPolicy.DEGRADE,
        )
        # Temporary marks are restored.
        assert not sim.shards[0].primary.wave.offline

    def test_shadowing_never_blocks(self):
        # The paper's point: shadowed transitions leave the old version
        # serving, so no query waits on maintenance (device contention
        # can still delay it, but nothing is ever degraded).
        sim = _run(
            scheme="REINDEX",
            technique=UpdateTechnique.SIMPLE_SHADOW,
            devices_per_replica=3,
            policy=OverlapPolicy.DEGRADE,
        )
        assert sim.result.total_queries_degraded() == 0


class TestPlacementStrategies:
    def test_rotate_spreads_maintenance_over_devices(self):
        sim = _run(scheme="REINDEX", devices_per_replica=3)
        span = sim.shards[0].primary.span
        assert all(device.clock > 0 for device in span.devices)
        # The constituents are spread over the span's devices.
        wave = sim.shards[0].primary.wave
        assert len({id(index.disk) for index in wave.live_constituents()}) > 1

    def test_a_spanning_replica_does_not_move(self):
        sim = _run(devices_per_replica=2)
        with pytest.raises(ClusterError, match="spans devices"):
            sim.rebalance_shard(0, 1)

    def test_one_device_concentrates_everything(self):
        sim = _run(devices_per_replica=1)
        assert len(sim.shards[0].primary.span) == 1
        # Serial timeline: the day's makespan is exactly its total work.
        assert sim.result.days[2].makespan_seconds == pytest.approx(
            sim.result.shard_results[0].days[2].total_work_seconds
        )


class TestPageCaches:
    def test_per_device_caches_report_day_deltas(self):
        sim = _run(devices_per_replica=2, page_cache_bytes=1 << 18)
        assert all(
            device.page_cache is not None
            for device in sim.shards[0].primary.span.devices
        )
        assert any(
            d.cache is not None and (d.cache.hits or d.cache.misses)
            for d in sim.result.shard_results[0].days
        )

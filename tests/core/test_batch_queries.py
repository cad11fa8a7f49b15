"""Tests for batched serving: WaveIndex.probe_many / scan_many."""

import pytest

from repro.core.executor import PlanExecutor
from repro.core.schemes import DelScheme
from repro.core.wave import WaveIndex
from repro.errors import DegradedWindowError, WaveIndexError
from repro.index.config import IndexConfig
from repro.index.updates import UpdateTechnique
from repro.storage.disk import SimulatedDisk
from repro.storage.pagecache import PageCache
from tests.conftest import make_store
from tests.reference.batch import probe_many_object, scan_many_object

WINDOW, N, LAST = 6, 3, 12


def build_wave(disk):
    """A DEL wave at day 12 (W=6, n=3): mixed packed/incremental layout."""
    store = make_store(LAST, seed=13)
    wave = WaveIndex(disk, IndexConfig(), N)
    executor = PlanExecutor(wave, store, UpdateTechnique.SIMPLE_SHADOW)
    scheme = DelScheme(WINDOW, N)
    executor.execute(scheme.start_ops())
    for day in range(WINDOW + 1, LAST + 1):
        executor.execute(scheme.transition_ops(day))
    return wave


@pytest.fixture
def wave():
    return build_wave(SimulatedDisk())


@pytest.fixture
def twin():
    """A second wave, built alike, for the object-level oracles to serve."""
    return build_wave(SimulatedDisk())


LO, HI = LAST - WINDOW + 1, LAST


class TestProbeMany:
    def test_results_match_individual_probes(self, wave, twin):
        requests = [
            ("a", LO, HI),
            ("b", LO, HI - 2),
            ("c", LO + 3, HI),
            ("z", LO, HI),  # absent value
        ]
        batch = wave.probe_many(requests)
        assert len(batch) == len(requests)
        for spec, result in zip(requests, batch):
            (solo,) = probe_many_object(twin, [spec]).results
            assert result.entries == solo.entries
            assert result.covered_days == solo.covered_days
            assert result.missing_days == solo.missing_days

    def test_per_request_seconds_sum_to_batch_total(self, wave):
        requests = [("a", LO, HI), ("a", LO, HI), ("b", LO, HI)]
        batch = wave.probe_many(requests)
        assert sum(r.seconds for r in batch) == pytest.approx(batch.seconds)
        assert batch.summary.seconds == batch.seconds

    def test_duplicates_are_served_once(self, wave, twin):
        k = 5
        batch = wave.probe_many([("a", LO, HI)] * k)
        (solo,) = probe_many_object(twin, [("a", LO, HI)]).results
        assert batch.summary.duplicate_hits > 0
        # The whole batch costs what one probe costs: k-1 requests ride along.
        assert batch.seconds == pytest.approx(solo.seconds)
        for result in batch:
            assert result.entries == solo.entries

    def test_batch_cheaper_than_individual_serving(self, wave):
        requests = [(v, LO, HI) for v in "ababcdcd"]
        batch = wave.probe_many(requests)
        individual = sum(
            wave.timed_index_probe(v, t1, t2).seconds for v, t1, t2 in requests
        )
        assert batch.seconds < individual

    def test_summary_counts_device_work(self, wave):
        batch = wave.probe_many([("a", LO, HI), ("b", LO, HI)])
        s = batch.summary
        assert s.requests == 2
        assert s.constituents_touched >= 1
        assert s.buckets_read >= 1
        assert s.seeks > 0
        assert s.bytes_read > 0
        assert s.seconds_per_request == pytest.approx(s.seconds / 2)

    def test_empty_batch(self, wave):
        batch = wave.probe_many([])
        assert len(batch) == 0
        assert batch.seconds == 0.0
        assert batch.summary.requests == 0

    def test_empty_range_rejected(self, wave):
        with pytest.raises(WaveIndexError):
            wave.probe_many([("a", HI, LO)])

    def test_cache_counters_flow_into_summary(self):
        disk = SimulatedDisk(page_cache=PageCache(1 << 20))
        wave = build_wave(disk)
        wave.probe_many([("a", LO, HI)])  # warm
        batch = wave.probe_many([("a", LO, HI)])
        assert batch.summary.cache_hits > 0


class TestScanMany:
    def test_results_match_individual_scans(self, wave, twin):
        requests = [(LO, HI), (LO, LO + 1), (HI, HI)]
        batch = wave.scan_many(requests)
        for spec, result in zip(requests, batch):
            (solo,) = scan_many_object(twin, [spec]).results
            assert result.entries == solo.entries
            assert result.covered_days == solo.covered_days

    def test_shared_sweep_cheaper_than_individual(self, wave):
        batch = wave.scan_many([(LO, HI)] * 4)
        solo = wave.timed_segment_scan(LO, HI)
        # Four full-window scans cost one sweep, split four ways.
        assert batch.seconds == pytest.approx(solo.seconds)
        assert batch.results[0].seconds == pytest.approx(solo.seconds / 4)

    def test_per_request_seconds_sum_to_batch_total(self, wave):
        batch = wave.scan_many([(LO, HI), (HI, HI)])
        assert sum(r.seconds for r in batch) == pytest.approx(batch.seconds)

    def test_empty_range_rejected(self, wave):
        with pytest.raises(WaveIndexError):
            wave.scan_many([(HI, LO)])


class TestDegradedBatches:
    def test_default_refuses_offline_constituent(self, wave):
        wave.offline.add("I1")
        with pytest.raises(DegradedWindowError):
            wave.probe_many([("a", LO, HI)])
        with pytest.raises(DegradedWindowError):
            wave.scan_many([(LO, HI)])

    def test_degraded_probe_reports_missing_days(self, wave, twin):
        offline_days = set(wave.get("I1").time_set)
        wave.offline.add("I1")
        batch = wave.probe_many([("a", LO, HI)], degraded=True)
        assert set(batch.results[0].missing_days) == offline_days
        twin.offline.add("I1")
        (solo,) = probe_many_object(twin, [("a", LO, HI)], degraded=True).results
        assert batch.results[0] == solo

    def test_degraded_scan_reports_missing_days(self, wave):
        offline_days = set(wave.get("I2").time_set)
        wave.offline.add("I2")
        batch = wave.scan_many([(LO, HI)], degraded=True)
        assert set(batch.results[0].missing_days) == offline_days

    def test_unaffected_requests_stay_complete(self, wave):
        offline_days = set(wave.get("I1").time_set)
        wave.offline.add("I1")
        clear = [d for d in range(LO, HI + 1) if d not in offline_days]
        t1, t2 = max(clear), max(clear)
        batch = wave.probe_many(
            [("a", LO, HI), ("a", t1, t2)], degraded=True
        )
        assert batch.results[0].missing_days
        assert not batch.results[1].missing_days


class TestQueryWorkloadBatching:
    def test_batched_workload_runs_and_is_cheaper(self):
        from repro.sim.querygen import QueryWorkload, uniform_key_picker

        disk = SimulatedDisk()
        wave = build_wave(disk)
        picker = uniform_key_picker(8)

        def cost(batch_size):
            workload = QueryWorkload(
                probes_per_day=32,
                scans_per_day=4,
                value_picker=lambda rng: f"w{picker(rng)}",
                seed=3,
                batch_size=batch_size,
            )
            return workload.run_day(wave, LAST, WINDOW)

        assert cost(16) < cost(1)

    def test_batch_size_validated(self):
        from repro.errors import WorkloadError
        from repro.sim.querygen import QueryWorkload

        with pytest.raises(WorkloadError):
            QueryWorkload(batch_size=0)

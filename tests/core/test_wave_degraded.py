"""Tests for degraded-window queries under constituent failures."""

import pytest

from repro.core.executor import PlanExecutor
from repro.core.schemes import DelScheme
from repro.core.wave import WaveIndex
from repro.errors import DegradedWindowError
from repro.index.config import IndexConfig
from repro.index.updates import UpdateTechnique
from repro.storage.faults import FaultInjector, FaultyDisk
from tests.conftest import make_store

WINDOW, N, LAST = 6, 3, 12


@pytest.fixture
def setup():
    """A DEL wave at day 12 on a faultable disk; W=6, n=3 (2 days each)."""
    store = make_store(LAST, seed=13)
    disk = FaultyDisk(injector=FaultInjector())
    wave = WaveIndex(disk, IndexConfig(), N)
    executor = PlanExecutor(wave, store, UpdateTechnique.SIMPLE_SHADOW)
    scheme = DelScheme(WINDOW, N)
    executor.execute(scheme.start_ops())
    for day in range(WINDOW + 1, LAST + 1):
        executor.execute(scheme.transition_ops(day))
    return store, disk, wave


class TestDegradedQueries:
    def test_default_query_refuses_partial_window(self, setup):
        _, _, wave = setup
        wave.offline.add("I1")
        lo, hi = LAST - WINDOW + 1, LAST
        with pytest.raises(DegradedWindowError):
            wave.timed_index_probe("a", lo, hi)
        with pytest.raises(DegradedWindowError):
            wave.timed_segment_scan(lo, hi)

    def test_degraded_probe_serves_exactly_surviving_days(self, setup):
        store, _, wave = setup
        offline_days = set(wave.get("I1").time_set)
        wave.offline.add("I1")
        lo, hi = LAST - WINDOW + 1, LAST
        surviving = set(range(lo, hi + 1)) - offline_days
        for value in "abcdefgh":
            result = wave.timed_index_probe(value, lo, hi, degraded=True)
            assert result.missing_days == offline_days
            assert result.covered_days == surviving
            assert not result.complete
            want = sorted(
                e.record_id
                for e in store.brute_probe(value, lo, hi)
                if e.day in surviving
            )
            assert sorted(result.record_ids) == want

    def test_degraded_scan_reports_coverage(self, setup):
        store, _, wave = setup
        offline_days = set(wave.get("I3").time_set)
        wave.offline.add("I3")
        lo, hi = LAST - WINDOW + 1, LAST
        result = wave.timed_segment_scan(lo, hi, degraded=True)
        assert result.missing_days == offline_days
        assert result.covered_days == set(range(lo, hi + 1)) - offline_days
        want = sorted(
            e.record_id
            for e in store.brute_scan(lo, hi)
            if e.day not in offline_days
        )
        assert sorted(result.record_ids) == want

    def test_offline_outside_range_does_not_degrade(self, setup):
        _, _, wave = setup
        wave.offline.add("I1")  # oldest days
        newest = max(wave.get("I3").time_set)
        result = wave.timed_index_probe("a", newest, newest, degraded=True)
        assert result.complete
        # And the strict form works too: I1 is irrelevant to this range.
        wave.timed_index_probe("a", newest, newest)

    def test_healthy_wave_results_are_complete(self, setup):
        _, _, wave = setup
        lo, hi = LAST - WINDOW + 1, LAST
        result = wave.timed_segment_scan(lo, hi)
        assert result.complete
        assert result.covered_days == set(range(lo, hi + 1))
        assert result.missing_days == frozenset()


class TestDeviceFailureDuringQuery:
    def test_failure_mid_query_marks_offline_and_degrades(self, setup):
        _, disk, wave = setup
        lo, hi = LAST - WINDOW + 1, LAST
        disk.injector.fail_device()
        # Strict query: the fault escalates.
        with pytest.raises(Exception) as exc_info:
            wave.timed_index_probe("a", lo, hi)
        assert "failed" in str(exc_info.value)
        # The failing constituent is now remembered as offline.
        assert wave.offline
        # Degraded query: every constituent is on the dead device, so the
        # whole window is reported missing rather than raising.
        result = wave.timed_index_probe("a", lo, hi, degraded=True)
        assert result.record_ids == ()
        assert result.missing_days == set(range(lo, hi + 1))
        assert result.covered_days == frozenset()

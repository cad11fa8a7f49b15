"""Tests for simulation metrics aggregation."""

import pytest

from repro.core.executor import PhaseSeconds
from repro.sim.metrics import DayMetrics, SimulationResult


def day(d, trans=1.0, pre=0.5, query=0.2, peak=100, length=5):
    return DayMetrics(
        day=d,
        seconds=PhaseSeconds(precompute=pre, transition=trans, post=0.0),
        query_seconds=query,
        steady_bytes=80,
        constituent_bytes=70,
        peak_bytes=peak,
        length_days=length,
        covered_days=frozenset(range(d - 4, d + 1)),
    )


@pytest.fixture
def result():
    res = SimulationResult(window=5, n_indexes=2, scheme_name="X", technique="t")
    res.days = [
        day(5, trans=10.0, peak=500),  # start day
        day(6, trans=1.0, peak=100),
        day(7, trans=2.0, peak=200, length=6),
        day(8, trans=3.0, peak=300),
    ]
    return res


class TestSteadyDays:
    def test_start_day_always_skipped(self, result):
        assert [d.day for d in result.steady_days()] == [6, 7, 8]

    def test_warmup_skips_more(self, result):
        assert [d.day for d in result.steady_days(warmup=2)] == [8]


class TestShortRuns:
    """Steady-window averages on runs too short to have steady days.

    Regression: these used to raise ZeroDivisionError when a run recorded
    <= 1 + warmup days; dashboards plotting curves want 0.0 instead.
    """

    @pytest.mark.parametrize("num_days", [0, 1])
    def test_averages_are_zero_not_an_error(self, num_days):
        res = SimulationResult(window=5, n_indexes=2, scheme_name="X", technique="t")
        res.days = [day(5)] * num_days
        assert res.avg_transition_seconds() == 0.0

    def test_warmup_longer_than_run(self, result):
        assert result.avg_transition_seconds(warmup=10) == 0.0

    def test_one_steady_day_still_averages(self, result):
        assert result.avg_transition_seconds(warmup=2) == pytest.approx(3.0)


class TestAggregates:
    def test_avg_transition(self, result):
        assert result.avg_transition_seconds() == pytest.approx(2.0)

    def test_total_work_includes_queries(self, result):
        metrics = result.days[1]
        assert metrics.total_work_seconds == pytest.approx(1.0 + 0.5 + 0.2)

    def test_peaks(self, result):
        assert result.max_peak_bytes() == 500  # start day counts here

    def test_max_length(self, result):
        assert result.max_length_days() == 6


class TestCacheAggregates:
    def test_days_without_cache_count_zero(self, result):
        assert result.days[0].cache_hits == 0
        assert result.days[0].cache_misses == 0
        assert result.total_cache_hits() == 0
        assert result.total_cache_misses() == 0

    def test_cache_deltas_summed(self, result):
        from repro.storage.pagecache import PageCacheSnapshot

        metrics = day(9)
        cached = DayMetrics(
            day=9,
            seconds=metrics.seconds,
            query_seconds=metrics.query_seconds,
            steady_bytes=metrics.steady_bytes,
            constituent_bytes=metrics.constituent_bytes,
            peak_bytes=metrics.peak_bytes,
            length_days=metrics.length_days,
            covered_days=metrics.covered_days,
            cache=PageCacheSnapshot(hits=10, misses=4),
        )
        result.days.append(cached)
        assert cached.cache_hits == 10
        assert cached.cache_misses == 4
        assert result.total_cache_hits() == 10
        assert result.total_cache_misses() == 4

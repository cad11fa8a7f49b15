"""Empty/short-input conventions for the report aggregations.

Pinned convention (see DESIGN.md): aggregations over an empty sample
return **0.0 for rates and totals** and **None for ratios** — never a
ZeroDivisionError, never a silent ``None`` where a number is promised.
These tests exercise each aggregation site at its empty boundary.
"""

import pytest

from repro.bench.chaos import ChaosSoakConfig
from repro.bench.elastic import _baseline_qps
from repro.core.executor import PhaseSeconds
from repro.sim.metrics import DayMetrics, SimulationResult


def day_metrics(day, peak_bytes=0, length_days=0):
    return DayMetrics(
        day=day,
        seconds=PhaseSeconds(),
        query_seconds=1.0,
        steady_bytes=0,
        constituent_bytes=0,
        peak_bytes=peak_bytes,
        length_days=length_days,
        covered_days=frozenset(),
    )


class TestSimulationResultEmpty:
    def make(self, days=()):
        return SimulationResult(
            window=7,
            n_indexes=2,
            scheme_name="DEL",
            technique="IN_PLACE",
            days=list(days),
        )

    def test_maxima_default_to_zero_on_empty_run(self):
        result = self.make()
        assert result.max_peak_bytes() == 0
        assert result.max_length_days() == 0

    def test_averages_default_to_zero_on_empty_run(self):
        result = self.make()
        assert result.avg_transition_seconds() == 0.0

    def test_start_day_alone_still_counts_for_maxima(self):
        # steady_days() drops day 0, but the whole-run maxima must not.
        result = self.make([day_metrics(0, peak_bytes=5, length_days=3)])
        assert result.max_peak_bytes() == 5
        assert result.max_length_days() == 3
        assert result.avg_transition_seconds() == 0.0  # no steady days yet


class TestElasticBaseline:
    def test_no_baseline_days_is_zero_rate(self):
        # Spike on the first post-warmup day: nothing to average over.
        assert _baseline_qps([], window=7, spike_day=8) == 0.0
        timeline = [{"day": 8, "qps": 50.0}]
        assert _baseline_qps(timeline, window=7, spike_day=8) == 0.0

    def test_baseline_is_mean_of_post_warmup_pre_spike_days(self):
        timeline = [
            {"day": 7, "qps": 999.0},  # warmup: excluded
            {"day": 8, "qps": 10.0},
            {"day": 9, "qps": 20.0},
            {"day": 10, "qps": 999.0},  # spike day: excluded
        ]
        assert _baseline_qps(timeline, window=7, spike_day=10) == 15.0


class TestChaosSeeds:
    def test_empty_seed_tuple_is_rejected_up_front(self):
        # The soak's makespan aggregations use explicit empty defaults,
        # but an empty soak is a configuration error, not a zero result.
        with pytest.raises(ValueError, match="seed"):
            ChaosSoakConfig(seeds=())

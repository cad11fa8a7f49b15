"""Tests for the bench-regression gate."""

import json
from pathlib import Path

import pytest

from repro.bench.regression import (
    DEFAULT_THRESHOLD,
    build_baseline,
    compare,
    extract_headlines,
    render_diff_table,
)


def serving_report(speedup=4.0):
    return {
        "bench": "serving",
        "speedups": {"batch256_cached_vs_unbatched_uncached": speedup},
    }


def overlap_report(makespan=0.9, p95=0.5):
    return {
        "bench": "overlap",
        "headline": {
            "makespan_ratio_mean": makespan,
            "reindex_p95_ratio_best": p95,
            "reindex_p95_improved": p95 < 1.0,
        },
    }


class TestExtraction:
    def test_serving_headline(self):
        assert extract_headlines(serving_report(3.5)) == {
            "serving_speedup_batch256": 3.5
        }

    def test_overlap_headlines(self):
        metrics = extract_headlines(overlap_report(0.88, 0.52))
        assert metrics == {
            "overlap_makespan_ratio_mean": 0.88,
            "overlap_reindex_p95_ratio_best": 0.52,
        }

    def test_a_frontend_report_feeds_no_gate(self):
        # The saturation knee measures the bench's stand-in service
        # sleep, not the system; its report gates through its claims.
        report = {"bench": "frontend", "headline": {"frontend_knee_qps": 512.0}}
        assert extract_headlines(report) == {}
        rows = compare(build_baseline([serving_report(4.0)]), [report])
        assert [(r.metric, r.skipped) for r in rows] == [
            ("serving_speedup_batch256", True)
        ]

    def test_baseline_merges_and_carries_over(self):
        baseline = build_baseline([serving_report(4.0)])
        assert baseline["metrics"] == {"serving_speedup_batch256": 4.0}
        refreshed = build_baseline([overlap_report()], previous=baseline)
        assert "serving_speedup_batch256" in refreshed["metrics"]
        assert "overlap_makespan_ratio_mean" in refreshed["metrics"]


class TestCompare:
    def test_unchanged_values_pass(self):
        baseline = build_baseline([serving_report(4.0), overlap_report()])
        rows = compare(baseline, [serving_report(4.0), overlap_report()])
        assert all(not r.regressed for r in rows)
        assert all(not r.skipped for r in rows)

    def test_higher_is_better_regression(self):
        baseline = build_baseline([serving_report(4.0)])
        rows = compare(baseline, [serving_report(2.0)])  # halved speedup
        assert rows[0].regressed
        assert rows[0].change == pytest.approx(-0.5)

    def test_lower_is_better_regression(self):
        baseline = build_baseline([overlap_report(makespan=0.8)])
        current = [overlap_report(makespan=1.2)]  # 50% worse
        rows = compare(baseline, current)
        row = next(r for r in rows if r.metric == "overlap_makespan_ratio_mean")
        assert row.regressed

    def test_within_threshold_passes(self):
        baseline = build_baseline([serving_report(4.0)])
        rows = compare(baseline, [serving_report(3.2)])  # -20% < 25%
        assert not rows[0].regressed

    def test_absent_bench_is_skipped_not_failed(self):
        baseline = build_baseline([serving_report(4.0), overlap_report()])
        rows = compare(baseline, [overlap_report()])
        serving = next(
            r for r in rows if r.metric == "serving_speedup_batch256"
        )
        assert serving.skipped and not serving.regressed

    def test_present_bench_missing_metric_fails(self):
        baseline = build_baseline([overlap_report()])
        broken = {"bench": "overlap", "headline": {}}
        rows = compare(baseline, [broken])
        assert all(r.regressed for r in rows if not r.skipped)

    def test_diff_table_names_failures(self):
        baseline = build_baseline([serving_report(4.0)])
        rows = compare(baseline, [serving_report(1.0)])
        table = render_diff_table(rows, DEFAULT_THRESHOLD)
        assert "REGRESSION" in table
        assert "serving_speedup_batch256" in table

    def test_diff_table_reports_ok(self):
        baseline = build_baseline([serving_report(4.0)])
        rows = compare(baseline, [serving_report(4.0)])
        table = render_diff_table(rows, DEFAULT_THRESHOLD)
        assert "gate ok" in table


def elastic_report(makespan=1.2):
    return {
        "bench": "elastic",
        "headline": {"throughput_recovery_makespan": makespan},
    }


class TestNewMetric:
    def test_measured_metric_absent_from_baseline_is_new_not_failing(self):
        # First run of a fresh benchmark against an older baseline: the
        # gate reports the metric instead of ignoring it or crashing.
        baseline = build_baseline([serving_report(4.0)])
        rows = compare(baseline, [serving_report(4.0), elastic_report()])
        fresh = next(
            r for r in rows if r.metric == "throughput_recovery_makespan"
        )
        assert fresh.new
        assert fresh.baseline is None
        assert fresh.current == pytest.approx(1.2)
        assert not fresh.regressed

    def test_diff_table_marks_new_and_points_at_update(self):
        baseline = build_baseline([serving_report(4.0)])
        rows = compare(baseline, [serving_report(4.0), elastic_report()])
        table = render_diff_table(rows, DEFAULT_THRESHOLD)
        assert "NEW" in table
        assert "--update" in table
        assert "gate ok" in table  # a NEW row never fails the gate

    def test_update_adopts_the_metric_into_the_gate(self):
        baseline = build_baseline([serving_report(4.0)])
        refreshed = build_baseline([elastic_report(1.2)], previous=baseline)
        assert refreshed["metrics"]["throughput_recovery_makespan"] == 1.2
        assert refreshed["metrics"]["serving_speedup_batch256"] == 4.0
        rows = compare(
            refreshed, [serving_report(4.0), elastic_report(1.2)]
        )
        assert not any(r.new for r in rows)
        assert not any(r.regressed for r in rows)

    def test_adopted_metric_regresses_like_any_other(self):
        baseline = build_baseline([elastic_report(1.0)])
        rows = compare(baseline, [elastic_report(1.5)])  # 50% worse
        row = next(
            r for r in rows if r.metric == "throughput_recovery_makespan"
        )
        assert row.regressed and not row.new


class TestDroppedMetric:
    """A baseline gate no benchmark measures anymore must fail loudly."""

    def ghost_baseline(self):
        baseline = build_baseline([serving_report(4.0)])
        baseline["metrics"]["retired_metric"] = 1.0
        return baseline

    def test_unknown_baseline_name_is_dropped_and_failing(self):
        rows = compare(self.ghost_baseline(), [serving_report(4.0)])
        ghost = next(r for r in rows if r.metric == "retired_metric")
        assert ghost.dropped
        assert ghost.regressed  # DROPPED fails the gate
        assert not ghost.skipped

    def test_dropped_fails_even_without_its_bench_provided(self):
        # Unlike a skipped metric, DROPPED does not depend on which
        # reports were handed to this CI job: the gate is gone, period.
        rows = compare(self.ghost_baseline(), [overlap_report()])
        ghost = next(r for r in rows if r.metric == "retired_metric")
        assert ghost.dropped and ghost.regressed

    def test_diff_table_names_the_dropped_gate(self):
        rows = compare(self.ghost_baseline(), [serving_report(4.0)])
        table = render_diff_table(rows, DEFAULT_THRESHOLD)
        assert "DROPPED" in table
        assert "retired_metric" in table
        assert "--update" in table

    def test_update_retires_the_dropped_gate(self):
        refreshed = build_baseline(
            [serving_report(4.0)], previous=self.ghost_baseline()
        )
        assert "retired_metric" not in refreshed["metrics"]
        rows = compare(refreshed, [serving_report(4.0)])
        assert not any(r.dropped for r in rows)

    def test_known_but_absent_bench_still_skips(self):
        # The DROPPED path must not swallow the normal skip: a metric
        # whose benchmark simply was not run stays skipped, not failed.
        baseline = build_baseline([serving_report(4.0), overlap_report()])
        rows = compare(baseline, [serving_report(4.0)])
        overlap = next(
            r for r in rows if r.metric == "overlap_makespan_ratio_mean"
        )
        assert overlap.skipped and not overlap.regressed


def resilience_report(lost=0.0, hedge_ratio=0.4):
    headline = {"rolling_restart_lost_requests": lost}
    if hedge_ratio is not None:
        headline["hedge_tail_ratio"] = hedge_ratio
    return {"bench": "resilience", "headline": headline}


class TestExactMetric:
    """Zero-loss is an equality gate, not a percentage allowance."""

    def test_extracted_from_resilience_report(self):
        headlines = extract_headlines(resilience_report(0.0, 0.4))
        assert headlines["rolling_restart_lost_requests"] == 0.0
        assert headlines["hedge_tail_ratio"] == 0.4

    def test_zero_baseline_zero_current_passes(self):
        # The relative gate cannot express a 0.0 baseline; the exact
        # gate treats it as the expected case.
        baseline = build_baseline([resilience_report(0.0)])
        rows = compare(baseline, [resilience_report(0.0)])
        lost = next(
            r for r in rows if r.metric == "rolling_restart_lost_requests"
        )
        assert not lost.regressed
        assert lost.change == 0.0

    def test_any_nonzero_delta_fails(self):
        # One lost request is a correctness bug, not a 25%-allowance
        # perf wiggle.
        baseline = build_baseline([resilience_report(0.0)])
        rows = compare(baseline, [resilience_report(1.0)])
        lost = next(
            r for r in rows if r.metric == "rolling_restart_lost_requests"
        )
        assert lost.regressed
        assert lost.change is None

    def test_missing_value_fails_when_bench_provided(self):
        baseline = build_baseline([resilience_report(0.0)])
        broken = {"bench": "resilience", "headline": {}}
        rows = compare(baseline, [broken])
        lost = next(
            r for r in rows if r.metric == "rolling_restart_lost_requests"
        )
        assert lost.regressed

    def test_absent_bench_still_skips(self):
        baseline = build_baseline([resilience_report(0.0)])
        rows = compare(baseline, [serving_report(4.0)])
        lost = next(
            r for r in rows if r.metric == "rolling_restart_lost_requests"
        )
        assert lost.skipped and not lost.regressed

    def test_diff_table_reports_exact_pass(self):
        baseline = build_baseline([resilience_report(0.0)])
        rows = compare(baseline, [resilience_report(0.0)])
        table = render_diff_table(rows, DEFAULT_THRESHOLD)
        assert "rolling_restart_lost_requests" in table
        assert "gate ok" in table


class TestHedgeTailMetric:
    """A plain gate: NEW until adopted, failing when absent."""

    def test_absence_fails_like_any_gated_headline(self):
        # The ratio is deterministic on virtual time and the committed
        # baseline gates it; a resilience report without it fails.
        baseline = build_baseline([resilience_report(0.0, hedge_ratio=0.4)])
        rows = compare(baseline, [resilience_report(0.0, hedge_ratio=None)])
        hedge = next(r for r in rows if r.metric == "hedge_tail_ratio")
        assert hedge.regressed and not hedge.skipped

    def test_not_in_baseline_shows_as_new(self):
        baseline = build_baseline([resilience_report(0.0, hedge_ratio=None)])
        rows = compare(baseline, [resilience_report(0.0, hedge_ratio=0.4)])
        hedge = next(r for r in rows if r.metric == "hedge_tail_ratio")
        assert hedge.new and not hedge.regressed

    def test_adopted_ratio_gates_relatively(self):
        baseline = build_baseline([resilience_report(0.0, hedge_ratio=0.4)])
        rows = compare(baseline, [resilience_report(0.0, hedge_ratio=0.8)])
        hedge = next(r for r in rows if r.metric == "hedge_tail_ratio")
        assert hedge.regressed  # doubled tail ratio, lower is better


def frontend_report(knee_qps=500.0):
    return {
        "bench": "frontend",
        "headline": {"frontend_knee_qps": knee_qps},
    }


class TestFrontendKneeMetric:
    """The retired saturation knee.

    The knee measures the bench's stand-in service sleep, so a frontend
    report gates through its claims only.
    """

    def test_knee_is_not_in_default_baseline(self):
        # The knee is no metric at all; the committed baseline gates the
        # hedge ratio beside it.
        committed = Path(__file__).resolve().parents[1] / "BENCH_baseline.json"
        baseline = json.loads(committed.read_text())
        assert "frontend_knee_qps" not in baseline["metrics"]
        assert "hedge_tail_ratio" in baseline["metrics"]
        rows = compare(
            baseline, [frontend_report(512.0), resilience_report(0.0, 0.4)]
        )
        assert "frontend_knee_qps" not in {r.metric for r in rows}
        hedge = next(r for r in rows if r.metric == "hedge_tail_ratio")
        assert not hedge.new and hedge.regressed

    def test_adopted_knee_gates_like_any_headline(self):
        # A machine-local baseline that adopted the knee before it was
        # retired fails the gate as DROPPED, even on an unchanged knee,
        # until ``--update`` prunes it; the adopted hedge ratio
        # regresses like any other headline.
        baseline = build_baseline([resilience_report(0.0, hedge_ratio=0.4)])
        baseline["metrics"]["frontend_knee_qps"] = 500.0
        rows = compare(
            baseline, [frontend_report(500.0), resilience_report(0.0, 1.0)]
        )
        knee = next(r for r in rows if r.metric == "frontend_knee_qps")
        assert knee.dropped and knee.regressed
        hedge = next(r for r in rows if r.metric == "hedge_tail_ratio")
        assert hedge.regressed and not hedge.new
        refreshed = build_baseline([frontend_report(500.0)], previous=baseline)
        assert "frontend_knee_qps" not in refreshed["metrics"]
        assert refreshed["metrics"]["hedge_tail_ratio"] == 0.4

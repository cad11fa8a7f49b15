"""Frontend-bench tests: config, schema validation, and claim logic.

These tests exercise the sweep's *logic* on synthetic step data, plus
one miniature end-to-end run; ``tests/test_bench_virtual_time.py`` runs
the quick sweep itself.
"""

import json

import pytest

from repro.bench.frontend import (
    BENCH,
    KNEE_REJECT_EPS,
    REQUIRED_STEP_KEYS,
    FrontendBenchConfig,
    _knee,
    _subsaturation_equivalent,
    quick_config,
    render_summary,
)
from repro.bench.harness import write_report
from repro.errors import FrontendError
from repro.serve.demo import DemoClusterConfig


def step(multiplier, admitted_qps, p95_s, *, shed=0.0, reject=None,
         offered=100, completed=None):
    if reject is None:
        reject = shed
    if completed is None:
        completed = int(offered * (1 - reject))
    row = {
        "multiplier": multiplier,
        "offered_qps_target": admitted_qps / max(1 - reject, 0.01),
        "offered": offered,
        "completed": completed,
        "admitted_qps": admitted_qps,
        "shed_ratio": shed,
        "reject_ratio": reject,
        "p95_s": p95_s,
        "p50_s": p95_s / 2,
        "errors": 0,
        "max_lag_s": 0.0,
    }
    assert all(k in row for k in REQUIRED_STEP_KEYS)
    return row


def synthetic_report():
    shed_steps = [
        step(0.3, 120.0, 0.004),
        step(0.9, 360.0, 0.010),
        step(1.5, 400.0, 0.015, shed=0.33),
        step(3.0, 400.0, 0.016, shed=0.66),
    ]
    queue_steps = [
        step(0.3, 120.0, 0.004),
        step(0.9, 360.0, 0.010),
        step(1.5, 395.0, 0.200),
        step(3.0, 390.0, 0.450),
    ]
    headline = {
        "frontend_knee_qps": 360.0,
        "knee_multiplier": 0.9,
        "knee_offered_qps": 370.0,
        "pre_knee_p95_s": 0.010,
        "shed_overload_p95_s": 0.015,
        "queue_overload_p95_s": 0.450,
        "shed_p95_over_pre_knee": 1.5,
        "queue_p95_over_shed_p95": 30.0,
        "claim": {
            "graceful_shed": True,
            "queue_p95_degrades": True,
            "shed_beats_queue_at_overload": True,
            "subsaturation_equivalent": True,
            "pass": True,
        },
    }
    assert all(k in headline for k in BENCH.schema.headline)
    return {
        "bench": "frontend",
        "schema_version": 1,
        "workload": {"seed": 7},
        "measured": {
            "capacity_qps": 420.0,
            "sweeps": {"shed": shed_steps, "queue": queue_steps},
        },
        "headline": headline,
    }


class TestConfig:
    def test_multipliers_must_straddle_the_knee(self):
        with pytest.raises(FrontendError, match="straddle"):
            FrontendBenchConfig(load_multipliers=(0.3, 0.6, 0.9))
        with pytest.raises(FrontendError, match="straddle"):
            FrontendBenchConfig(load_multipliers=(1.5, 2.0))

    def test_multipliers_must_increase(self):
        with pytest.raises(FrontendError, match="increasing"):
            FrontendBenchConfig(load_multipliers=(0.5, 2.0, 1.5))

    def test_multipliers_must_exist(self):
        with pytest.raises(FrontendError, match="empty"):
            FrontendBenchConfig(load_multipliers=())

    def test_bad_durations(self):
        with pytest.raises(FrontendError):
            FrontendBenchConfig(step_duration_s=0.0)
        with pytest.raises(FrontendError):
            FrontendBenchConfig(service_us=-1.0)
        with pytest.raises(FrontendError):
            # Capacity is max_concurrency / service time.
            FrontendBenchConfig(service_us=0.0)

    def test_quick_config_is_shorter_but_still_valid(self):
        quick = quick_config()
        full = FrontendBenchConfig()
        assert quick.step_duration_s < full.step_duration_s
        assert quick.load_multipliers[0] < 1.0 < quick.load_multipliers[-1]


class TestKnee:
    def test_picks_highest_throughput_that_keeps_up(self):
        candidates = [
            step(0.3, 100.0, 0.01),
            step(0.9, 300.0, 0.02),
            step(1.5, 320.0, 0.03, shed=0.4),
        ]
        assert _knee(candidates)["multiplier"] == 0.9

    def test_tolerates_trace_shedding_below_eps(self):
        candidates = [
            step(0.9, 300.0, 0.02, shed=KNEE_REJECT_EPS / 2),
            step(0.3, 100.0, 0.01),
        ]
        assert _knee(candidates)["admitted_qps"] == 300.0

    def test_degenerate_all_shedding_falls_back_to_best(self):
        candidates = [
            step(0.5, 200.0, 0.02, shed=0.3),
            step(1.5, 260.0, 0.03, shed=0.6),
        ]
        assert _knee(candidates)["admitted_qps"] == 260.0


class TestSubsaturationEquivalence:
    def test_identical_substeps_pass(self):
        shed = [step(0.5, 100.0, 0.01), step(2.0, 150.0, 0.02, shed=0.5)]
        queue = [step(0.5, 100.0, 0.01), step(2.0, 140.0, 0.30)]
        assert _subsaturation_equivalent(shed, queue)

    def test_mismatched_completions_fail(self):
        shed = [step(0.5, 100.0, 0.01, completed=100)]
        queue = [step(0.5, 100.0, 0.01, completed=97)]
        assert not _subsaturation_equivalent(shed, queue)

    def test_burst_shed_steps_are_skipped(self):
        # A sub-saturation step where the shed policy dropped a burst
        # is not comparable — it must not fail the claim.
        shed = [step(0.9, 300.0, 0.02, shed=0.03, completed=90)]
        queue = [step(0.9, 310.0, 0.02, completed=100)]
        assert _subsaturation_equivalent(shed, queue)


class TestValidateReport:
    def test_synthetic_report_passes(self):
        BENCH.validate(synthetic_report())

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda r: r.pop("headline"), "missing key"),
            (lambda r: r.update(bench="other"), "unexpected bench"),
            (
                lambda r: r["measured"]["sweeps"].pop("queue"),
                "no sweep steps",
            ),
            (
                lambda r: r["measured"]["sweeps"]["shed"][0].pop("p95_s"),
                "missing key 'p95_s'",
            ),
            (
                lambda r: r["headline"].pop("frontend_knee_qps"),
                "headline missing",
            ),
            (
                lambda r: r["headline"].update(frontend_knee_qps=-1.0),
                "negative",
            ),
        ],
    )
    def test_schema_violations_are_loud(self, mutate, message):
        report = synthetic_report()
        mutate(report)
        with pytest.raises(ValueError, match=message):
            BENCH.validate(report)


class TestMiniatureSweep:
    """One tiny end-to-end run: schema, artifact, and summary."""

    @pytest.fixture(scope="class")
    def report(self):
        return BENCH.execute(
            quick=True,
            cluster=DemoClusterConfig(
                window=3, n_indexes=2, n_shards=2, domain=40,
                records_per_day=8, extra_days=1, seed=3,
            ),
            load_multipliers=(0.4, 2.5),
            step_duration_s=0.15,
            service_us=1_500.0,
            n_users=10_000,
            n_tenants=4,
        )

    def test_report_validates(self, report):
        BENCH.validate(report)

    def test_report_is_stamped_quick(self, report):
        assert report["workload"]["quick"] is True

    def test_saturated_step_sheds(self, report):
        top = report["measured"]["sweeps"]["shed"][-1]
        assert top["shed_ratio"] > 0.0
        assert top["completed"] < top["offered"]

    def test_artifact_round_trips(self, report, tmp_path):
        path = write_report(report, tmp_path / "BENCH_frontend.json")
        BENCH.validate(json.loads(path.read_text()))

    def test_summary_renders(self, report):
        text = render_summary(report)
        assert "knee" in text
        assert "claims" in text
        for policy in ("shed", "queue"):
            assert policy in text

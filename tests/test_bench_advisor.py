"""Tests for the advisor drift bench report schema and claims."""

import json

import pytest

from repro.advisor import AdvisorConfig
from repro.bench.advisor import (
    BENCH,
    AdvisorBenchConfig,
    quick_config,
    render_summary,
)
from repro.bench.harness import Wave, write_report


@pytest.fixture(scope="module")
def report():
    # The quick config runs the exact same races as the full one (see
    # quick_config's docstring): one module-scoped run covers the suite.
    return BENCH.execute(quick=True)


class TestAdvisorConfig:
    def test_defaults_validate(self):
        config = AdvisorBenchConfig()
        assert config.last_day == config.wave.window + 3 * config.phase_days
        p1, p2, p3 = config.phase_starts
        assert p1 == config.wave.window + 1
        assert p3 - p2 == config.phase_days

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            AdvisorBenchConfig(wave=Wave(window=6, n_indexes=3, scheme="NOPE"))

    def test_illegal_static_design_rejected(self):
        with pytest.raises(ValueError):
            AdvisorBenchConfig(static_designs=(("WATA*", 1),))

    def test_phases_must_fit_a_retune(self):
        with pytest.raises(ValueError):
            AdvisorBenchConfig(
                phase_days=3,
                advisor=AdvisorConfig(observe_days=2, cooldown_days=2),
            )

    def test_quick_is_the_same_race(self, report):
        base = AdvisorBenchConfig()
        quick = quick_config()
        assert report["workload"]["quick"] is True
        assert quick.phase_days == base.phase_days
        assert quick.static_designs == base.static_designs


class TestAdvisorReport:
    def test_schema_validates(self, report):
        BENCH.validate(report)
        assert report["bench"] == "advisor"
        for key in BENCH.schema.headline:
            assert key in report["headline"]

    def test_advisor_beats_every_static(self, report):
        headline = report["headline"]
        assert headline["beats_every_static"] is True
        for label, data in report["statics"].items():
            assert headline["advisor_cost"] < data["cumulative_cost"], label
        assert headline["advisor_drift_advantage"] > 1.0

    def test_advisor_actually_retuned(self, report):
        assert report["headline"]["retunes"] >= 2
        designs_seen = set()
        for entry in report["timeline"]:
            designs_seen.update(entry.get("designs", {}).values())
        assert len(designs_seen) >= 2

    def test_divergent_beats_uniform(self, report):
        headline = report["headline"]
        assert headline["divergent_beats_uniform"] is True
        assert headline["divergent_gain"] > 1.0
        divergent = report["divergent"]
        assert divergent["divergent_qps"] > divergent["uniform_qps"]
        # The twins really diverged in design.
        assert len(set(divergent["divergent_designs"].values())) == 2

    def test_answers_are_bit_identical(self, report):
        assert report["headline"]["bit_identical"] is True

    def test_claim_passes(self, report):
        claim = report["headline"]["claim"]
        assert claim["pass"] is True
        assert claim["beats_every_static"] is True
        assert claim["divergent_beats_uniform"] is True
        assert claim["bit_identical"] is True

    def test_timeline_charges_retunes_inside_maintenance(self, report):
        charged = [e for e in report["timeline"] if e["retunes"]]
        assert charged
        for entry in charged:
            assert entry["retune_seconds"] > 0.0
            assert entry["cost_seconds"] >= entry["retune_seconds"]

    def test_report_is_json_serialisable(self, report, tmp_path):
        path = write_report(report, tmp_path / "BENCH_advisor.json")
        restored = json.loads(path.read_text())
        assert restored["headline"]["claim"]["pass"] is True

    def test_summary_renders(self, report):
        text = render_summary(report)
        assert "drift advantage" in text
        assert "divergent" in text
        assert "PASS" in text

    def test_validate_rejects_missing_headline(self, report):
        broken = dict(report)
        broken["headline"] = {
            k: v
            for k, v in report["headline"].items()
            if k != "advisor_drift_advantage"
        }
        with pytest.raises(ValueError):
            BENCH.validate(broken)

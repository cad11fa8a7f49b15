"""Tests for the overlap benchmark and its report schema."""

import pytest

from repro.bench import harness
from repro.bench.harness import write_report
from repro.bench.overlap import (
    BENCH,
    OverlapBenchConfig,
    quick_config,
    render_summary,
    run_overlap_bench,
)


@pytest.fixture(scope="module")
def quick_report():
    return BENCH.execute(quick=True)


class TestConfig:
    def test_defaults_validate(self):
        config = OverlapBenchConfig()
        assert config.last_day == config.wave.window + config.transitions

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            OverlapBenchConfig(schemes=("NOPE",))

    def test_single_device_rejected(self):
        with pytest.raises(ValueError):
            OverlapBenchConfig(n_devices=1)

    def test_quick_is_marked(self, quick_report):
        assert quick_report["workload"]["quick"] is True


class TestReport:
    def test_schema_validates(self, quick_report):
        BENCH.validate(quick_report)
        assert quick_report["bench"] == "overlap"
        assert len(quick_report["schemes"]) == 7

    def test_acceptance_reindex_p95_improves(self, quick_report):
        # The committed perf claim: at least one REINDEX-family scheme's
        # during-transition p95 is strictly below its serialized twin.
        assert quick_report["headline"]["reindex_p95_improved"] is True
        assert quick_report["headline"]["reindex_p95_ratio_best"] < 1.0

    def test_overlapping_shortens_the_timeline(self, quick_report):
        assert quick_report["headline"]["makespan_ratio_mean"] < 1.0

    def test_modes_serve_identical_streams(self, quick_report):
        for entry in quick_report["schemes"]:
            assert (
                entry["serialized"]["queries"]
                == entry["overlapped"]["queries"]
            )
            # Physical query cost is mode-independent (same call sequence).
            assert entry["serialized"]["query_seconds"] == pytest.approx(
                entry["overlapped"]["query_seconds"], rel=0.35
            )

    def test_validate_rejects_missing_keys(self, quick_report):
        broken = dict(quick_report)
        del broken["headline"]
        with pytest.raises(ValueError):
            BENCH.validate(broken)

    def test_validate_rejects_empty_schemes(self, quick_report):
        broken = dict(quick_report)
        broken["schemes"] = []
        with pytest.raises(ValueError):
            BENCH.validate(broken)

    def test_write_and_summary(self, quick_report, tmp_path):
        path = write_report(quick_report, tmp_path / "BENCH_overlap.json")
        assert path.exists()
        text = render_summary(quick_report)
        assert "REINDEX" in text
        assert "makespan" in text


def test_arrival_stretch_spreads_both_modes_the_same(monkeypatch):
    # Both modes replay the same query stream, so a stretch spreads the
    # serialized mode's arrivals as well as the overlapped mode's.
    stretches = []

    class Recording(harness.ClusterSimulation):
        def __init__(self, *args, **kwargs):
            stretches.append(kwargs["cluster"].arrival_stretch)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ClusterSimulation", Recording)
    config = harness.override(
        quick_config(), arrival_stretch=3.0, schemes=("REINDEX",), transitions=2
    )
    report = run_overlap_bench(config)
    assert stretches == [3.0, 3.0]
    assert report["scheduler"]["arrival_stretch"] == 3.0

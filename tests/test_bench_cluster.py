"""Tests for the cluster benchmark and its report schema."""

import pytest

from repro.bench.harness import Wave, write_report
from repro.bench.cluster import (
    BENCH,
    ClusterBenchConfig,
    render_summary,
)


@pytest.fixture(scope="module")
def quick_report():
    return BENCH.execute(quick=True)


class TestConfig:
    def test_defaults_validate(self):
        config = ClusterBenchConfig()
        assert config.last_day == config.wave.window + config.transitions

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            ClusterBenchConfig(wave=Wave(window=10, n_indexes=4, scheme="NOPE"))

    def test_missing_single_shard_baseline_rejected(self):
        with pytest.raises(ValueError):
            ClusterBenchConfig(shard_counts=(2, 4))

    def test_missing_multi_shard_point_rejected(self):
        with pytest.raises(ValueError):
            ClusterBenchConfig(shard_counts=(1,))

    def test_quick_is_marked(self, quick_report):
        assert quick_report["workload"]["quick"] is True


class TestReport:
    def test_schema_validates(self, quick_report):
        BENCH.validate(quick_report)
        assert quick_report["bench"] == "cluster"
        # One lockstep run per shard count plus staggered at k_max.
        assert len(quick_report["runs"]) == len(
            quick_report["cluster"]["shard_counts"]
        ) + 1

    def test_acceptance_throughput_scales_with_shards(self, quick_report):
        # The committed perf claim: k shards on k devices beat one index.
        assert quick_report["headline"]["throughput_scaling"] > 1.0

    def test_acceptance_staggered_beats_lockstep_p95(self, quick_report):
        # The committed perf claim: bounding concurrent transitions cuts
        # the during-transition tail against the all-at-once schedule.
        assert quick_report["headline"]["staggered_p95_improved"] is True
        assert quick_report["headline"]["staggered_p95_ratio"] < 1.0

    def test_every_run_serves_the_same_stream(self, quick_report):
        queries = {entry["queries"] for entry in quick_report["runs"]}
        assert len(queries) == 1
        assert all(
            entry["failovers"] == 0 and entry["queries_degraded"] == 0
            for entry in quick_report["runs"]
        )

    def test_validate_rejects_missing_keys(self, quick_report):
        broken = dict(quick_report)
        del broken["headline"]
        with pytest.raises(ValueError):
            BENCH.validate(broken)

    def test_validate_rejects_empty_runs(self, quick_report):
        broken = dict(quick_report)
        broken["runs"] = []
        with pytest.raises(ValueError):
            BENCH.validate(broken)

    def test_write_and_summary(self, quick_report, tmp_path):
        path = write_report(quick_report, tmp_path / "BENCH_cluster.json")
        assert path.exists()
        text = render_summary(quick_report)
        assert "staggered" in text
        assert "throughput scaling" in text

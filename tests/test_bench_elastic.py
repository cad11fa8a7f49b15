"""Tests for the elastic spike-recovery bench and the topology-chaos
harness report schemas."""

import dataclasses

import pytest

from repro.bench.elastic import (
    BENCH,
    ElasticBenchConfig,
    quick_config,
    render_summary,
)
from repro.bench.harness import Wave
from repro.bench.topology_chaos import (
    BENCH as CHAOS_BENCH,
    TopologyChaosConfig,
    quick_config as chaos_quick_config,
    render_summary as chaos_render_summary,
    run_topology_chaos,
)


@pytest.fixture(scope="module")
def quick_report():
    return BENCH.execute(quick=True)


@pytest.fixture(scope="module")
def chaos_report():
    # Scaled down but still covering every step of both pipelines with
    # crash faults (the full kill/space matrix runs in the nightly soak).
    config = dataclasses.replace(
        chaos_quick_config(), kinds=("split", "merge"), settle_days=2
    )
    return run_topology_chaos(config)


class TestElasticConfig:
    def test_defaults_validate(self):
        config = ElasticBenchConfig()
        assert config.spike_day == config.wave.window + config.spike_after
        assert config.last_day == config.wave.window + config.transitions

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            ElasticBenchConfig(wave=Wave(window=7, n_indexes=3, scheme="NOPE"))

    def test_spike_must_leave_recovery_room(self):
        with pytest.raises(ValueError):
            ElasticBenchConfig(transitions=3, spike_after=3)

    def test_quick_keeps_the_headline_window(self, quick_report):
        config = quick_config()
        assert quick_report["workload"]["quick"] is True
        # The spike and its recovery window survive the shrink — the
        # quick headline must stay inside the bench-check gate band.
        assert config.spike_after == ElasticBenchConfig().spike_after
        assert config.transitions == config.spike_after + 4


class TestElasticReport:
    def test_schema_validates(self, quick_report):
        BENCH.validate(quick_report)
        assert quick_report["bench"] == "elastic"

    def test_spike_recovers_via_split(self, quick_report):
        headline = quick_report["headline"]
        assert headline["recovered"] is True
        assert headline["splits_applied"] >= 1
        assert headline["throughput_recovery_makespan"] > 0
        assert quick_report["headline"]["claim"]["pass"] is True

    def test_elastic_beats_the_static_twin(self, quick_report):
        headline = quick_report["headline"]
        assert (
            headline["post_recovery_qps"] > headline["static_spiked_qps"]
        )

    def test_timeline_shows_the_topology_growing(self, quick_report):
        n_shards = [d["n_shards"] for d in quick_report["timeline"]]
        assert n_shards[0] == quick_report["cluster"]["n_shards"]
        assert max(n_shards) > n_shards[0]
        static = [d["n_shards"] for d in quick_report["static"]]
        assert len(set(static)) == 1  # the twin never reshapes

    def test_summary_renders(self, quick_report):
        text = render_summary(quick_report)
        assert "recovery" in text
        assert "claim: PASS" in text
        assert "day" in text


class TestTopologyChaosReport:
    def test_schema_validates(self, chaos_report):
        CHAOS_BENCH.validate(chaos_report)
        assert chaos_report["bench"] == "topology_chaos"

    def test_every_cell_passes(self, chaos_report):
        headline = chaos_report["headline"]
        assert headline["pass"] is True
        assert headline["violations"] == 0
        assert headline["cells"] > 0

    def test_both_pipelines_fully_enumerated(self, chaos_report):
        # One cell per (kind, step, fault); both pipelines appear and
        # the crash fault reaches every step including plan and cleanup.
        steps = chaos_report["steps"]
        assert set(steps) == {"split", "merge"}
        crashed = {
            (c["kind"], c["step"])
            for c in chaos_report["cells"]
            if c["fault"] == "crash"
        }
        for kind, names in steps.items():
            for name in names:
                assert (kind, name) in crashed

    def test_outcomes_partition_the_matrix(self, chaos_report):
        headline = chaos_report["headline"]
        assert (
            headline["applied"]
            + headline["aborted"]
            + headline["rolled_forward"]
            + headline["skipped"]
            == headline["cells"]
        )

    def test_summary_renders(self, chaos_report):
        text = chaos_render_summary(chaos_report)
        assert "cells" in text

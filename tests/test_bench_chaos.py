"""Tests for the chaos soak harness and its report schema."""

import pytest

from repro.bench.harness import write_report
from repro.bench.chaos import (
    BENCH,
    ChaosSoakConfig,
    quick_config,
    render_summary,
    run_chaos_soak,
)


@pytest.fixture(scope="module")
def quick_report():
    return run_chaos_soak(quick_config())


class TestConfig:
    def test_defaults_validate(self):
        config = ChaosSoakConfig()
        assert config.last_day == config.window + config.transitions

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            ChaosSoakConfig(scheme="NOPE")

    def test_unknown_kill_point_rejected(self):
        with pytest.raises(ValueError):
            ChaosSoakConfig(kill_points=("transition", "reboot"))

    def test_kills_without_replication_rejected(self):
        # A permanent kill with r=1 darkens the shard by construction;
        # the soak's zero-dark-shards invariant could never hold.
        with pytest.raises(ValueError):
            ChaosSoakConfig(replication=1)

    def test_too_short_soak_rejected(self):
        with pytest.raises(ValueError):
            ChaosSoakConfig(transitions=2)

    def test_quick_is_marked_and_single_seed(self):
        config = quick_config()
        assert config.quick is True
        assert len(config.seeds) == 1
        # The store shape is NOT shrunk: the recovery-makespan headline
        # must stay inside the bench-check band of the full-run baseline.
        assert config.docs_per_day == ChaosSoakConfig().docs_per_day
        assert config.window == ChaosSoakConfig().window


class TestReport:
    def test_schema_validates(self, quick_report):
        BENCH.validate(quick_report)
        assert quick_report["bench"] == "chaos"
        assert len(quick_report["runs"]) == len(
            quick_report["chaos"]["seeds"]
        )

    def test_acceptance_invariants_hold(self, quick_report):
        # The committed robustness claim: one kill per shard, and the
        # cluster still never diverges from the fault-free twin, never
        # fabricates a day, and never leaves a shard dark.
        headline = quick_report["headline"]
        assert headline["all_invariants_pass"] is True
        assert headline["zero_dark_shards"] is True
        for run in quick_report["runs"]:
            assert run["violations"] == []
            assert all(run["invariants"].values())

    def test_every_kill_is_healed(self, quick_report):
        # One kill per shard retires one replica each; every one must be
        # rebuilt by the end of the soak (aborted attempts are retried).
        kills = sum(len(run["kills"]) for run in quick_report["runs"])
        assert kills == quick_report["chaos"]["n_shards"] * len(
            quick_report["chaos"]["seeds"]
        )
        assert quick_report["headline"]["total_rebuilds"] >= kills

    def test_recovery_makespan_is_a_single_rebuild_span(self, quick_report):
        headline = quick_report["headline"]
        assert headline["recovery_makespan_seconds"] > 0.0
        # The headline is the worst single rebuild, so it bounds the mean.
        assert (
            headline["recovery_makespan_seconds"]
            >= headline["recovery_makespan_mean"] > 0.0
        )

    def test_retries_bounded_by_policy(self, quick_report):
        budget = quick_report["chaos"]["retry_max_attempts"] - 1
        for run in quick_report["runs"]:
            assert run["max_op_retries"] <= budget

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
        path = write_report(quick_report, tmp_path / "BENCH_chaos.json")
        assert path.exists()
        text = render_summary(quick_report)
        assert "recovery" in text
        assert "PASS" in text

    def test_deterministic_given_seeds(self, quick_report):
        # Same config, same seeds, same report — no wall-clock noise.
        assert run_chaos_soak(quick_config()) == quick_report

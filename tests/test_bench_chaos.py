"""Tests for the chaos soak harness and its report schema."""

from dataclasses import replace

import pytest

from repro.bench import harness
from repro.bench.harness import Wave, write_report
from repro.bench.chaos import (
    BENCH,
    ChaosSoakConfig,
    quick_config,
    render_summary,
    run_chaos_soak,
)
from repro.cluster import ClusterConfig


@pytest.fixture(scope="module")
def quick_report():
    return BENCH.execute(quick=True)


class TestConfig:
    def test_defaults_validate(self):
        config = ChaosSoakConfig()
        assert config.last_day == config.wave.window + config.transitions

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            ChaosSoakConfig(wave=Wave(window=8, n_indexes=4, scheme="NOPE"))

    def test_unknown_kill_point_rejected(self):
        with pytest.raises(ValueError):
            ChaosSoakConfig(kill_points=("transition", "reboot"))

    def test_kills_without_replication_rejected(self):
        # A permanent kill with r=1 darkens the shard by construction;
        # the soak's zero-dark-shards invariant could never hold.
        with pytest.raises(ValueError):
            ChaosSoakConfig(cluster=ClusterConfig(n_shards=4, replication=1))

    def test_too_short_soak_rejected(self):
        with pytest.raises(ValueError):
            ChaosSoakConfig(transitions=2)

    def test_quick_is_marked_and_single_seed(self, quick_report):
        config = quick_config()
        assert quick_report["workload"]["quick"] is True
        assert len(config.seeds) == 1
        # The store shape is NOT shrunk: the recovery-makespan headline
        # must stay inside the bench-check band of the full-run baseline.
        assert config.corpus == ChaosSoakConfig().corpus
        assert config.wave == ChaosSoakConfig().wave


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
        assert BENCH.execute(quick=True) == quick_report


class TestAbortingSpares:
    """An aborting spare aborts the rebuild it was queued for.

    A "die" spare must fail within its rebuild (which writes the spare
    six times) rather than as a replica a day later, and two shards
    healing on one day must each get their own kill's spares.  These
    seeds break either rule if it slips: a shard ends the run
    under-replicated, or a window stays open two days with no abort.
    """

    @pytest.mark.parametrize("seed", [0, 6, 22, 32, 35])
    def test_every_invariant_holds(self, seed):
        (run,) = run_chaos_soak(ChaosSoakConfig(seeds=(seed,)))["runs"]
        assert run["violations"] == []
        aborting = sum(
            mode in ("die", "space") for mode in run["spare_modes_used"]
        )
        assert run["rebuilds_failed"] == aborting > 0


def test_one_fault_free_twin_answers_every_seed(monkeypatch):
    # A soak over k seeds builds k faulted clusters and one twin, not a
    # twin per seed.
    twins = []

    class Counting(harness.ClusterSimulation):
        def __init__(self, *args, **kwargs):
            twins.append(kwargs["cluster"].selfheal is None)
            super().__init__(*args, **kwargs)

    # Every bench builds its simulations through harness.build_world.
    monkeypatch.setattr(harness, "ClusterSimulation", Counting)
    config = replace(quick_config(), seeds=(7, 8))
    report = run_chaos_soak(config)
    assert report["headline"]["all_invariants_pass"]
    assert len(twins) == len(config.seeds) + 1
    assert twins.count(True) == 1

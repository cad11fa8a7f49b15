"""The cost-model planner: candidate grid, hysteresis, cooldown."""

from dataclasses import dataclass

import pytest

from repro.advisor import AdvisorConfig, CostModelPlanner, Design
from repro.advisor.config import HYSTERESIS
from repro.advisor.observer import ShardObservation
from repro.analysis.parameters import SCAM_PARAMETERS

WINDOW = 6


def _planner(**overrides) -> CostModelPlanner:
    config = AdvisorConfig(**overrides)
    return CostModelPlanner(SCAM_PARAMETERS.with_window(WINDOW), config)


@dataclass(eq=False)
class _Replica:
    """What the planner reads of a replica: its ids and its identity."""

    shard_id: int = 0
    replica_id: int = 0


def _obs(probes=50.0, scans=5.0, *, days=2, newest=0.0) -> ShardObservation:
    return ShardObservation(
        shard_id=0,
        days=days,
        probes_per_day=probes,
        scans_per_day=scans,
        newest_fraction=newest,
    )


class TestCandidates:
    def test_grid_is_schemes_times_legal_n(self):
        planner = _planner()
        labels = {(d.scheme, d.n_indexes) for d in planner.candidates()}
        # Default n grid at W=6: {1, 2, 3, 6}; WATA* needs n >= 2.
        assert ("DEL", 1) in labels
        assert ("DEL", 6) in labels
        assert ("WATA*", 2) in labels
        assert ("WATA*", 1) not in labels

    def test_explicit_n_grid_is_respected(self):
        planner = _planner(candidate_n=(2,))
        assert {d.n_indexes for d in planner.candidates()} == {2}

    def test_never_exceeds_window(self):
        planner = _planner(candidate_n=(1, 2, WINDOW, WINDOW + 5))
        assert all(d.n_indexes <= WINDOW for d in planner.candidates())


class TestPredict:
    def test_costs_are_positive_and_cached(self):
        planner = _planner()
        design = Design("DEL", 2, "simple_shadow")
        first = planner.predict(design, _obs())
        assert first > 0.0
        assert planner.predict(design, _obs()) == first
        assert len(planner._cost_cache) == 1

    def test_workload_changes_the_prediction(self):
        planner = _planner()
        design = Design("DEL", 2, "simple_shadow")
        light = planner.predict(design, _obs(probes=1.0, scans=0.0))
        heavy = planner.predict(design, _obs(probes=500.0, scans=0.0))
        assert heavy > light

    def test_switch_charge_amortizes_a_window_rebuild(self):
        planner = _planner(amortization_days=7)
        params = planner.params
        expected = WINDOW * params.implementation.build_s / 7
        assert planner.switch_charge_s == pytest.approx(expected)


class TestReplicaView:
    def test_uniform_mode_sees_everything(self):
        planner = _planner(divergent=False)
        obs = _obs(probes=10.0, scans=4.0)
        assert planner.replica_view(obs, 1, 2) is obs

    def test_single_replica_sees_everything_even_divergent(self):
        planner = _planner(divergent=True)
        obs = _obs()
        assert planner.replica_view(obs, 0, 1) is obs

    def test_divergent_twins_split_by_access_type(self):
        planner = _planner(divergent=True)
        obs = _obs(probes=10.0, scans=4.0)
        probe_twin = planner.replica_view(obs, 0, 2)
        scan_twin = planner.replica_view(obs, 1, 2)
        assert probe_twin.probes_per_day == 10.0
        assert probe_twin.scans_per_day == 0.0
        assert scan_twin.probes_per_day == 0.0
        assert scan_twin.scans_per_day == 4.0


class TestDecide:
    CURRENT = Design("DEL", 6, "simple_shadow")

    def test_abstains_during_warmup(self):
        planner = _planner(observe_days=3)
        assert planner.decide(_Replica(), 9, self.CURRENT, _obs(days=2)) is None

    def test_abstains_on_zero_traffic(self):
        planner = _planner()
        quiet = _obs(probes=0.0, scans=0.0)
        assert planner.decide(_Replica(), 9, self.CURRENT, quiet) is None

    def test_switches_away_from_a_bad_design_under_probes(self):
        # Heavy probing makes DEL/6 a bad incumbent under the SCAM
        # constants; the planner must move, and only to a challenger
        # whose charged cost clears the hysteresis margin.
        planner = _planner(amortization_days=30)
        decision = planner.decide(
            _Replica(), 9, self.CURRENT, _obs(probes=500.0, scans=0.0)
        )
        assert decision is not None
        assert decision.target != self.CURRENT
        assert decision.switch_charge_s > 0.0
        assert decision.predicted_target_s < (
            decision.predicted_current_s * (1.0 - HYSTERESIS)
        )

    def test_cooldown_blocks_back_to_back_retunes(self):
        planner = _planner(amortization_days=30, cooldown_days=3)
        heavy = _obs(probes=500.0, scans=0.0)
        replica = _Replica()
        assert planner.decide(replica, 9, self.CURRENT, heavy) is not None
        assert planner.decide(replica, 10, self.CURRENT, heavy) is None
        assert planner.decide(replica, 12, self.CURRENT, heavy) is not None

    def test_cooldown_follows_the_replica_not_its_ids(self):
        planner = _planner(amortization_days=30, cooldown_days=3)
        heavy = _obs(probes=500.0, scans=0.0)
        retuned = _Replica(1, 0)
        assert planner.decide(retuned, 9, self.CURRENT, heavy) is not None
        # A split below renumbers the retuned replica's shard; another
        # replica now holds its old ids.
        retuned.shard_id = 2
        newcomer = _Replica(1, 0)
        assert planner.decide(retuned, 10, self.CURRENT, heavy) is None
        decision = planner.decide(newcomer, 10, self.CURRENT, heavy)
        assert decision is not None
        assert (decision.shard_id, decision.replica_id) == (1, 0)

    def test_incumbent_already_best_holds(self):
        planner = _planner()
        probe_best = _planner(amortization_days=30).decide(
            _Replica(), 9, self.CURRENT, _obs(probes=500.0, scans=0.0)
        )
        assert probe_best is not None
        decision = planner.decide(
            _Replica(), 9, probe_best.target, _obs(probes=500.0, scans=0.0)
        )
        assert decision is None

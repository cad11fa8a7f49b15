"""The per-shard traffic window: served units in, windowed mix out."""

import pytest

from repro.advisor import AdvisorConfig
from repro.advisor.observer import ShardObservation, TrafficWindow
from repro.cluster import ClusterConfig, ClusterSimulation, ElasticConfig
from repro.core.schemes import scheme_by_name
from repro.errors import ClusterError
from repro.sim.querygen import (
    ProbeUnit,
    QueryWorkload,
    ScanUnit,
    uniform_key_picker,
)
from tests.advisor.helpers import make_int_store

WINDOW = 6


def _serve(window, *, probes=(), scans=0, newest=0):
    """Feed ``window`` one probe unit and ``scans`` scans, ``newest`` of
    them over one day."""
    if probes:
        window.observe(ProbeUnit(tuple(probes), 1, WINDOW, False))
    if scans - newest:
        window.observe(ScanUnit(scans - newest, 1, WINDOW, False))
    if newest:
        window.observe(ScanUnit(newest, WINDOW, WINDOW, False))


class TestWorkloadObserver:
    """The workload observer is each shard's own traffic window."""

    def test_rejects_zero_window(self):
        with pytest.raises(ClusterError):
            AdvisorConfig(observe_days=0)

    def test_single_day_is_averaged_over_itself(self):
        window = TrafficWindow(observe_days=2)
        _serve(window, probes=range(10), scans=4, newest=3)
        window.end_day()
        obs = window.observation(0)
        assert obs.days == 1
        assert obs.probes_per_day == 10.0
        assert obs.scans_per_day == 4.0
        assert obs.newest_fraction == pytest.approx(0.75)

    def test_window_averages_across_days(self):
        window = TrafficWindow(observe_days=2)
        _serve(window, probes=[1] * 10)
        window.end_day()
        _serve(window, probes=[2] * 30)
        window.end_day()
        assert window.observation(0).probes_per_day == 20.0

    def test_old_days_roll_off(self):
        window = TrafficWindow(observe_days=2)
        _serve(window, probes=range(1000))
        window.end_day()
        for _ in range(2):
            _serve(window, probes=[7, 8])
            window.end_day()
        # The 1000-probe day is outside the 2-day window.
        assert window.observation(0).probes_per_day == 2.0

    def test_deltas_not_running_totals(self):
        window = TrafficWindow(observe_days=1)
        _serve(window, probes=range(50))
        window.end_day()
        window.end_day()  # a quiet day
        assert window.observation(0).probes_per_day == 0.0

    def test_shards_are_independent(self):
        left, right = TrafficWindow(1), TrafficWindow(1)
        _serve(left, probes=range(7))
        _serve(right, scans=5, newest=5)
        left.end_day()
        right.end_day()
        assert left.observation(0).probes_per_day == 7.0
        assert left.observation(0).scans_per_day == 0.0
        assert right.observation(1).scans_per_day == 5.0
        assert right.observation(1).scan_target == "newest"

    def test_scan_target_inference(self):
        newest = ShardObservation(0, 2, 0.0, 10.0, 0.6)
        spread = ShardObservation(0, 2, 0.0, 10.0, 0.4)
        assert newest.scan_target == "newest"
        assert spread.scan_target == "all"


def _advised(n_shards, range_splits, *, observe_days=3, scans=0):
    scheme_cls = scheme_by_name("DEL")
    return ClusterSimulation(
        lambda: scheme_cls(WINDOW, WINDOW),
        make_int_store(WINDOW + 8, domain=16, seed=3),
        queries=QueryWorkload(
            probes_per_day=200,
            scans_per_day=scans,
            value_picker=uniform_key_picker(16),
            seed=5,
        ),
        cluster=ClusterConfig(
            n_shards=n_shards,
            partitioner="range",
            range_splits=range_splits,
            maintenance="lockstep",
            advisor=AdvisorConfig(
                observe_days=observe_days,
                cooldown_days=30,
                amortization_days=30,
            ),
            elastic=ElasticConfig(autoscale=False, min_shards=1),
        ),
    )


def _probes(shard):
    return [sum(day.probes.values()) for day in shard.traffic.days]


class TestReshardHandsTheWindowOn:
    """A shard is judged on its own keys' traffic, across a reshard."""

    def test_a_split_judges_every_shard_on_its_own_keys(self):
        sim = _advised(2, (8,))
        upper = sim.shards[1]
        sim.run_start()
        sim.request_split(0, split_key=4)
        sim.run_transition(WINDOW + 1)
        sim.run_transition(WINDOW + 2)
        left, right, renumbered = sim.shards
        assert renumbered is upper and upper.shard_id == 2
        assert _probes(left) == [40, 38, 45]
        assert _probes(right) == [59, 54, 44]
        assert _probes(upper) == [101, 108, 111]
        reads = [
            round(s.traffic.observation(s.shard_id).probes_per_day, 1)
            for s in sim.shards
        ]
        assert reads == [41.0, 52.3, 106.7]
        # Each child's days hold only the values it owns.
        assert all(v < 4 for day in left.traffic.days for v in day.probes)
        assert all(
            4 <= v < 8 for day in right.traffic.days for v in day.probes
        )

    def test_a_merged_child_sums_its_parents_probes(self):
        sim = _advised(3, (5, 11), scans=6)
        sim.run_start()
        low, high, untouched = sim.shards
        window = untouched.traffic
        (low_day,), (high_day,) = low.traffic.days, high.traffic.days
        sim.request_merge(0)
        assert sim.run_transition(WINDOW + 1).reshards == 1
        merged = sim.shards[0]
        handed, own = merged.traffic.days
        assert handed.probes == low_day.probes + high_day.probes
        assert (handed.scans, handed.newest) == (low_day.scans, low_day.newest)
        assert handed.scans == 6
        # Scans reach every shard: the merged child's own day too.
        assert own.scans == 6
        obs = merged.traffic.observation(0)
        assert obs.days == 2
        assert obs.probes_per_day == (
            sum(handed.probes.values()) + sum(own.probes.values())
        ) / 2
        # The shard the merge did not touch keeps its own window.
        assert sim.shards[1] is untouched and untouched.traffic is window

    def test_an_advised_cluster_writes_no_per_shard_counters(self):
        sim = _advised(2, (8,))
        sim.run_start()
        sim.request_split(0, split_key=4)
        for day in range(WINDOW + 1, WINDOW + 4):
            sim.run_transition(day)
        names = sim.obs.counters()
        assert not [n for n in names if n.startswith("advisor.shard")]
        assert "cluster.advisor.decisions" in names

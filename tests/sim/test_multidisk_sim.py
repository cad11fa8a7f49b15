"""Tests for the multi-disk configuration of the day loop.

One shard whose one replica spans ``D`` devices
(``ClusterConfig(devices_per_replica=D)``): its plan executor rotates the
index creations over the span, and each device's clock delta over a day
is that device's busy time.  The day's elapsed time is the busiest
device's, its serial time the sum.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.core.schemes import DelScheme, ReindexScheme, WataStarScheme
from repro.index.updates import UpdateTechnique
from tests.conftest import make_store

WINDOW, N = 8, 4


def run_scheme(scheme_cls, n_disks, last_day=16, technique=UpdateTechnique.SIMPLE_SHADOW):
    """Run days ``W..last_day``; return the replica and each day's
    per-device busy seconds."""
    sim = ClusterSimulation(
        lambda: scheme_cls(WINDOW, N),
        make_store(last_day, seed=55),
        technique=technique,
        cluster=ClusterConfig(n_shards=1, devices_per_replica=n_disks),
    )
    replica = sim.shards[0].replicas[0]
    span = replica.span
    days = []
    for day in range(WINDOW, last_day + 1):
        before = span.clocks()
        if day == WINDOW:
            sim.run_start()
        else:
            sim.run_transition(day)
        days.append([now - then for now, then in zip(span.clocks(), before)])
    span.check_invariants()
    return replica, days


def speedup(busy):
    """Serial over elapsed (1.0 for an idle day)."""
    elapsed = max(busy)
    return sum(busy) / elapsed if elapsed else 1.0


class TestPlacement:
    def test_constituents_spread_round_robin(self):
        replica, _ = run_scheme(DelScheme, n_disks=4)
        disks = {
            name: replica.wave.get(name).disk
            for name in replica.wave.constituents
        }
        assert len({id(d) for d in disks.values()}) == 4

    def test_fewer_disks_share(self):
        replica, _ = run_scheme(DelScheme, n_disks=2)
        placements = [
            replica.wave.get(name).disk for name in replica.wave.constituents
        ]
        assert len({id(d) for d in placements}) == 2


class TestParallelism:
    def test_initial_build_overlaps_across_disks(self):
        """The W-day start builds n indexes: with n disks they overlap."""
        _, days_1 = run_scheme(ReindexScheme, n_disks=1, last_day=WINDOW)
        _, days_4 = run_scheme(ReindexScheme, n_disks=4, last_day=WINDOW)
        start_1, start_4 = days_1[0], days_4[0]
        assert max(start_1) == pytest.approx(sum(start_1))
        assert speedup(start_4) > 2.5
        # Total work is conserved; only elapsed time shrinks.
        assert sum(start_4) == pytest.approx(sum(start_1))

    def test_single_target_day_gains_nothing(self):
        """A steady DEL day touches one index: no overlap to exploit."""
        _, days = run_scheme(DelScheme, n_disks=4)
        assert speedup(days[-1]) == pytest.approx(1.0)

    def test_elapsed_never_exceeds_serial(self):
        for scheme_cls in (DelScheme, ReindexScheme, WataStarScheme):
            _, days = run_scheme(scheme_cls, n_disks=3)
            for busy in days:
                assert max(busy) <= sum(busy) + 1e-9


class TestCorrectness:
    @pytest.mark.parametrize("n_disks", [1, 2, 4])
    def test_queries_identical_to_single_disk(self, n_disks):
        store = make_store(16, seed=55)
        replica, _ = run_scheme(DelScheme, n_disks=n_disks)
        lo, hi = 16 - WINDOW + 1, 16
        for value in "abcdefgh":
            got = sorted(
                replica.wave.timed_index_probe(value, lo, hi).record_ids
            )
            want = sorted(
                e.record_id for e in store.brute_probe(value, lo, hi)
            )
            assert got == want

    def test_no_leaks_across_array(self):
        replica, _ = run_scheme(WataStarScheme, n_disks=3)
        bound = sum(
            i.allocated_bytes for i in replica.wave.bindings.values()
        )
        assert replica.span.live_bytes == bound

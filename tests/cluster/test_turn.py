"""``turn(day)``: the cluster's maintenance step, with no serving in it.

A day of the loop is the turn, then the simulated serving pass, then the
day's bookkeeping.  The turn reads no query workload and no serving
state, and the bookkeeping charges nothing, so a turn alone must leave
every replica exactly where ``run_transition(day)`` without queries
leaves its twin: the same stored waves, device clocks and I/O counters.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation, Turn
from repro.core.persistence import wave_to_json
from repro.core.schemes import scheme_by_name
from repro.index.updates import UpdateTechnique
from tests.conftest import make_store

W, N, LAST = 6, 2, 10

CASES = [
    ("DEL", UpdateTechnique.IN_PLACE),
    ("REINDEX", UpdateTechnique.SIMPLE_SHADOW),
    ("WATA*", UpdateTechnique.PACKED_SHADOW),
]


class Untouchable:
    """A query workload that fails any read of it."""

    def __getattribute__(self, name):
        raise AssertionError(f"the turn read the query workload: {name}")


def _cluster(scheme, technique):
    scheme_cls = scheme_by_name(scheme)
    sim = ClusterSimulation(
        lambda: scheme_cls(W, N),
        make_store(LAST),
        technique=technique,
        cluster=ClusterConfig(n_shards=2, replication=2),
    )
    sim.run_start()
    return sim


def _state(sim):
    return [
        (
            replica.name,
            wave_to_json(replica.wave),
            replica.device.clock,
            replica.device.stats.snapshot(),
        )
        for shard in sim.shards
        for replica in shard.replicas
    ]


@pytest.mark.parametrize(
    "scheme,technique", CASES, ids=[f"{s}-{t.value}" for s, t in CASES]
)
def test_a_turn_alone_equals_a_transition_without_queries(scheme, technique):
    sim = _cluster(scheme, technique)
    twin = _cluster(scheme, technique)
    sim.queries = Untouchable()
    for day in range(W + 1, LAST + 1):
        turn = sim.turn(day)
        twin.run_transition(day)
        assert isinstance(turn, Turn) and turn.day == day
        assert len(turn.windows) == len(turn.reports) == len(sim.shards)
        assert _state(sim) == _state(twin)
    # The turn books nothing: only the twin's days were recorded.
    assert len(sim.result.days) == 1
    assert len(twin.result.days) == 1 + LAST - W


def test_the_first_turn_is_the_build():
    sim = ClusterSimulation(
        lambda: scheme_by_name("DEL")(W, N),
        make_store(LAST),
        cluster=ClusterConfig(n_shards=2),
    )
    turn = sim.turn(W)
    assert turn.maintenance_makespan_seconds > 0
    covered = {d for shard in sim.shards for d in shard.primary.wave.covered_days()}
    assert covered == set(range(1, W + 1))

"""Posting runs in a cluster: one source store, one post a day, ``k`` cuts.

A shard's store is a view of the cluster's source store: the day is
posted once, by the source, and each shard's run is its cut of that run.
The source holds its runs only while a turn is in progress
(``RecordStore.holding_runs``); the ``r`` executors of a shard share the
shard's view, so a replica re-created by the healer finds the donor's
cuts alive.  After every turn the live runs are exactly the cuts held by
the replicas' indexes: no source run, and nothing a dropped or mutated
index held, survives it — by reference count alone, there is no cycle
for a collector to find.
"""

import gc
import weakref

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation, SelfHealConfig
from repro.core.records import PostingRun, Record
from repro.core.schemes import scheme_by_name
from repro.index.updates import UpdateTechnique
from repro.storage.faults import FaultInjector, FaultyDisk
from tests.conftest import make_store

W, N, SHARDS = 8, 2, 2
LAST = 4 * W


def live_runs():
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, PostingRun)]


@pytest.fixture
def new_runs():
    """Return the live runs (source or cut) that were not alive before the test."""
    before = weakref.WeakSet(live_runs())
    return lambda: [run for run in live_runs() if run not in before]


def build(scheme, technique, replication, *, selfheal=None, injectors=None):
    def factory(i):
        disk = FaultyDisk(injector=FaultInjector())
        if injectors is not None:
            injectors[i] = disk.injector
        return disk

    return ClusterSimulation(
        lambda: scheme_by_name(scheme)(W, N),
        make_store(LAST),
        technique=technique,
        cluster=ClusterConfig(
            n_shards=SHARDS,
            replication=replication,
            partitioner="hash",
            selfheal=selfheal,
        ),
        device_factory=factory,
    )


def assert_live_runs_are_held(sim, *, collect=True, retired=()):
    """Per shard: live cuts == runs held by its replicas' bound indexes
    (those of ``retired``, replicas that left the shard, on a failed
    device are never dropped and count too), and the source store holds
    none.  Return the days the shard's replicas hold, per shard."""
    if collect:
        gc.collect()
    assert not sim.store._runs
    alive_days = []
    for shard in sim.shards:
        held, alive = set(), set()
        gone = [r for r in retired if r.shard_id == shard.shard_id]
        for replica in [*shard.replicas, *gone]:
            for index in replica.wave.bindings.values():
                days = {run.day for run in index._runs}
                if days:
                    assert index.packed and days == index.time_set
                held |= days
                if replica in shard.replicas:
                    alive |= days
        assert sorted(shard.store._runs.keys()) == sorted(held)
        alive_days.append(sorted(alive))
    return alive_days


@pytest.mark.parametrize("replication", [1, 2])
def test_reindex_turn_posts_the_day_once_for_the_cluster(posted, new_runs, replication):
    sim = build("REINDEX", UpdateTechnique.SIMPLE_SHADOW, replication)
    sim.run_start()
    assert posted == [sim.store.batch(day) for day in range(1, W + 1)]
    for day in range(W + 1, LAST + 1):  # 3·W transitions
        del posted[:]
        sim.run_transition(day)
        assert posted == [sim.store.batch(day)]
        window = list(range(day - W + 1, day + 1))
        assert assert_live_runs_are_held(sim) == [window] * SHARDS
    assert len(new_runs()) == SHARDS * W  # the cuts, nothing else


def test_del_in_place_cluster_holds_nothing_after_one_cycle(posted, new_runs):
    sim = build("DEL", UpdateTechnique.IN_PLACE, 2)
    sim.run_start()
    for day in range(W + 1, 2 * W + 1):
        del posted[:]
        sim.run_transition(day)
        assert posted == [sim.store.batch(day)]
        assert_live_runs_are_held(sim)
    assert assert_live_runs_are_held(sim) == [[]] * SHARDS
    assert new_runs() == []  # no shard run, no source run, no cut


def test_rebuilt_replica_shares_the_shards_runs(posted):
    injectors = {}
    sim = build(
        "REINDEX",
        UpdateTechnique.SIMPLE_SHADOW,
        2,
        selfheal=SelfHealConfig(),
        injectors=injectors,
    )
    sim.run_start()
    victim = sim.shards[0].primary
    victim.device.injector.fail_device()
    for day in range(W + 1, 2 * W + 1):
        del posted[:]
        sim.run_transition(day)
        # Retirement, copy + catch-up on the spare: still one post a day,
        # and the survivors hold exactly the window.  On the kill day the
        # victim's device refuses the build; the turn holds the day's run,
        # so the survivor finds the cut the victim asked for.
        assert posted == [sim.store.batch(day)]
        window = list(range(day - W + 1, day + 1))
        assert assert_live_runs_are_held(sim, retired=[victim]) == (
            [window] * SHARDS
        )
    assert sim.result.total_rebuilds() == 1
    assert len(sim.shards[0].replicas) == 2
    # The retired replica's wave is never touched again: what it holds is
    # what it held when it died, and nothing else outlives the window.
    retired_days = {
        run.day
        for index in victim.wave.bindings.values()
        for run in index._runs
    }
    assert retired_days <= set(range(1, W + 2))


def test_runs_die_by_reference_count_alone():
    """No cut refers to its source run and no source run outlives its
    turn, so nothing waits for a collector that perf/ and a frozen
    serving process never run."""
    gc.collect()
    gc.disable()
    try:
        sim = build("REINDEX", UpdateTechnique.SIMPLE_SHADOW, 1)
        sim.run_start()
        for day in range(W + 1, 2 * W + 1):
            sim.run_transition(day)
            window = list(range(day - W + 1, day + 1))
            assert assert_live_runs_are_held(sim, collect=False) == [window] * SHARDS
        # Dropping the indexes that hold the cuts drops the cuts.
        cuts = [
            weakref.ref(run)
            for shard in sim.shards
            for run in shard.store.runs_for(window)
        ]
        assert len(cuts) == SHARDS * W
        for shard in sim.shards:
            for replica in shard.replicas:
                for name in list(replica.wave.bindings):
                    replica.wave.unbind(name).drop()
        assert [ref() for ref in cuts] == [None] * len(cuts)
        assert assert_live_runs_are_held(sim, collect=False) == [[]] * SHARDS
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "scheme, technique",
    [("REINDEX", UpdateTechnique.SIMPLE_SHADOW), ("DEL", UpdateTechnique.IN_PLACE)],
)
def test_a_cluster_constructs_no_record(monkeypatch, scheme, technique):
    """A record is stored once: building and turning a ``k > 1`` cluster
    makes no ``Record``; only a cold reader of a view's ``batch`` does."""
    store = make_store(LAST)
    made = []
    validate = Record.__post_init__

    def counted(record):
        made.append(record)
        validate(record)

    monkeypatch.setattr(Record, "__post_init__", counted)
    sim = ClusterSimulation(
        lambda: scheme_by_name(scheme)(W, N),
        store,
        technique=technique,
        cluster=ClusterConfig(n_shards=3, replication=2, partitioner="hash"),
    )
    sim.run_start()
    for day in range(W + 1, 2 * W + 1):
        sim.run_transition(day)
    assert made == []
    narrowed = sim.shards[0].store.batch(W).records
    assert made == list(narrowed) != []

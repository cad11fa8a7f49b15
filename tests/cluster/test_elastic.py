"""Elastic resharding: the split/merge kinds, the autoscaler, refusals.

What a split and a merge install is pinned here.  The pipeline's fault
contract — clean abort with the old topology intact before the swap,
roll-forward after it — is the shared runner's and is pinned for every
kind in ``tests/cluster/test_staged_matrix.py``; the exhaustive seeded
matrix lives in :mod:`repro.bench.topology_chaos`.
"""

import random

import pytest

from repro.cluster import (
    Autoscaler,
    ClusterConfig,
    ClusterSimulation,
    ElasticConfig,
    ScaleAction,
    Split,
    reshard_change,
)
from repro.cluster.partitioner import SlotHashPartitioner
from repro.core.boundary import drive, fault_at
from repro.core.records import Record, RecordStore
from repro.core.schemes import scheme_by_name
from repro.core.staged import ChangeAborted
from repro.errors import ClusterError
from repro.sim.querygen import QueryWorkload, uniform_key_picker
from repro.storage.faults import FaultInjector, FaultyDisk

WINDOW = 4
N_INDEXES = 2
DOMAIN = 600
SPLITS = (200, 400)


def int_store(last_day: int, *, per_day: int = 10, seed: int = 3) -> RecordStore:
    rng = random.Random(seed)
    store = RecordStore()
    rid = 0
    for day in range(1, last_day + 1):
        records = [
            Record(rid := rid + 1, day, (rng.randint(1, DOMAIN),), nbytes=60)
            for _ in range(per_day)
        ]
        store.add_records(day, records)
    return store


def make_sim(
    store: RecordStore,
    *,
    elastic: ElasticConfig | None = None,
    faulty: bool = False,
    replication: int = 1,
    selfheal=None,
    n_shards: int = 3,
    splits: tuple = SPLITS,
) -> ClusterSimulation:
    scheme_cls = scheme_by_name("REINDEX")
    serial = [0]

    def device(_: int) -> FaultyDisk:
        serial[0] += 1
        return FaultyDisk(injector=FaultInjector(900 + serial[0]))

    return ClusterSimulation(
        lambda: scheme_cls(WINDOW, N_INDEXES),
        store,
        queries=QueryWorkload(
            probes_per_day=8,
            value_picker=uniform_key_picker(DOMAIN),
            seed=21,
        ),
        cluster=ClusterConfig(
            n_shards=n_shards,
            replication=replication,
            partitioner="range",
            range_splits=splits,
            elastic=elastic,
            selfheal=selfheal,
        ),
        device_factory=device if faulty else None,
    )


def run_to(sim: ClusterSimulation, day: int) -> None:
    sim.run_start()
    for d in range(WINDOW + 1, day + 1):
        sim.run_transition(d)


class TestRequestAPI:
    def test_requests_require_elastic(self):
        sim = make_sim(int_store(WINDOW))
        with pytest.raises(ClusterError):
            sim.request_split(1)
        with pytest.raises(ClusterError):
            sim.request_merge(1)

    def test_pending_action_is_visible(self):
        sim = make_sim(
            int_store(WINDOW), elastic=ElasticConfig(autoscale=False)
        )
        assert sim.changes == []
        sim.request_split(1, reason="manual")
        (change,) = sim.changes
        assert change.kind == "split"
        assert change.shard_id == 1

    def test_requests_queue_in_order(self):
        sim = make_sim(
            int_store(WINDOW), elastic=ElasticConfig(autoscale=False)
        )
        split = sim.request_split(0)
        merge = sim.request_merge(1)
        assert sim.changes == [split, merge]

    def test_bad_shard_ids_are_refused_at_request_time(self):
        sim = make_sim(
            int_store(WINDOW + 1), elastic=ElasticConfig(autoscale=False)
        )
        with pytest.raises(ClusterError, match="cannot split shard 99"):
            sim.request_split(99)
        with pytest.raises(ClusterError, match="cannot split shard -1"):
            sim.request_split(-1)
        # The last shard has no next neighbour to merge with.
        with pytest.raises(ClusterError, match="cannot merge shard 2"):
            sim.request_merge(2)
        assert sim.changes == []
        # Nothing was queued, so the day loop runs on.
        run_to(sim, WINDOW + 1)
        assert sim.result.days[-1].reshards_aborted == 0


class TestSplitUnderTraffic:
    def test_split_applies_and_serves_complete_answers(self):
        store = int_store(WINDOW + 3)
        sim = make_sim(store, elastic=ElasticConfig(autoscale=False))
        run_to(sim, WINDOW + 1)
        sim.request_split(1)
        sim.run_transition(WINDOW + 2)
        stats = sim.result.days[-1]
        assert stats.reshards == 1
        assert stats.reshard_kinds == ("split",)
        assert stats.n_shards == 4
        assert stats.topology_version == 1
        assert stats.queries_degraded == 0
        assert not stats.shards_unavailable
        # The routing table and the shard list agree after the swap.
        assert sim.partitioner.n_shards == 4
        assert [s.shard_id for s in sim.shards] == [0, 1, 2, 3]
        sim.run_transition(WINDOW + 3)
        assert sim.result.days[-1].queries_degraded == 0
        counters = sim.obs.counters()
        assert counters["cluster.elastic.splits"] == 1
        assert counters["cluster.topology.swaps"] == 1
        assert counters["cluster.elastic.bytes_copied"] > 0

    def test_split_children_own_disjoint_key_ranges(self):
        store = int_store(WINDOW + 2)
        sim = make_sim(store, elastic=ElasticConfig(autoscale=False))
        run_to(sim, WINDOW + 1)
        sim.request_split(1)
        sim.run_transition(WINDOW + 2)
        part = sim.partitioner
        journal = sim.staged.journals[-1]
        assert journal.phase == "done"
        # The journal records the chosen key (stringified for the JSON
        # mirror); it separates the two children exactly.
        assert journal.kind == "split"
        assert journal.subject["source_shards"] == [1]
        key = int(journal.subject["split_key"])
        assert part.shard_for(key - 1) == 1
        assert part.shard_for(key) == 2

    def test_retired_parent_series_preserved(self):
        store = int_store(WINDOW + 2)
        sim = make_sim(store, elastic=ElasticConfig(autoscale=False))
        run_to(sim, WINDOW + 1)
        n_days_before = len(sim.result.shard_results[1].days)
        sim.request_split(1)
        sim.run_transition(WINDOW + 2)
        assert len(sim.result.retired_shard_results) == 1
        assert len(sim.result.retired_shard_results[0].days) == n_days_before


class TestMergeUnderTraffic:
    def test_merge_applies_cleanly(self):
        store = int_store(WINDOW + 2)
        sim = make_sim(store, elastic=ElasticConfig(autoscale=False))
        run_to(sim, WINDOW + 1)
        sim.request_merge(1)
        sim.run_transition(WINDOW + 2)
        stats = sim.result.days[-1]
        assert stats.reshards == 1
        assert stats.reshard_kinds == ("merge",)
        assert stats.n_shards == 2
        assert stats.queries_degraded == 0
        assert sim.partitioner.n_shards == 2
        assert sim.obs.counters()["cluster.elastic.merges"] == 1


class TestAbortReasons:
    def test_dark_source_aborts(self):
        store = int_store(WINDOW + 1)
        sim = make_sim(store, elastic=ElasticConfig(autoscale=False))
        run_to(sim, WINDOW + 1)
        shard = sim.shards[1]
        for replica in shard.replicas:
            shard.retire(replica, None, reason="device-failure")
        action = ScaleAction(kind="split", shard_id=1)
        with pytest.raises(ChangeAborted) as excinfo:
            drive(sim.staged.steps(reshard_change(sim, action), day=WINDOW + 2))
        assert excinfo.value.kind == "split"
        assert excinfo.value.reason == "dark-source"
        # A refused change staged nothing, so it journals nothing.
        assert not excinfo.value.journaled
        assert not sim.staged.journals

    def test_abort_reason_surfaces_in_day_stats(self):
        # The day-stats `reshard_deferred` field carries the abort
        # reason, so operators can see *why* a queued change is waiting.
        store = int_store(WINDOW + 2)
        sim = make_sim(store, elastic=ElasticConfig(autoscale=False))
        run_to(sim, WINDOW + 1)
        sim.request_split(1)
        drive(sim.day_steps(WINDOW + 2), fault_at("split", 0))
        assert sim.result.days[-1].reshard_deferred == "crash"


class TestQueueRule:
    """One rule for every queued change: a refusal before staging drops
    it, and nothing a queued change meets at run time escapes the day."""

    def test_refused_split_is_dropped_and_the_autoscaler_proposes_again(self):
        # Shard 1 owns [200, 201): one value, no key strictly inside it.
        # The hot shard is 2, owning [201, 600].
        sim = make_sim(
            int_store(WINDOW + 3),
            elastic=ElasticConfig(split_load_factor=1.5, max_shards=4),
            splits=(200, 201),
        )
        sim.request_split(1)
        sim.run_start()
        refused = sim.run_transition(WINDOW + 1)
        assert refused.reshards_aborted == 1
        assert refused.reshard_deferred == "no-split-key"
        assert not sim.staged.journals
        # The queue emptied, so the autoscaler's proposal went in.
        assert refused.autoscaler["queued"]["shard_id"] == 2
        assert [(c.kind, c.shard_id) for c in sim.changes] == [("split", 2)]
        follow = sim.run_transition(WINDOW + 2)
        assert follow.reshards_aborted == 0
        assert follow.reshards == 1 and follow.n_shards == 4
        assert sim.obs.counters()["cluster.elastic.aborted"] == 1

    def test_a_shard_gone_by_run_time_is_refused_not_raised(self):
        sim = make_sim(
            int_store(WINDOW + 3), elastic=ElasticConfig(autoscale=False)
        )
        run_to(sim, WINDOW + 1)
        sim.request_merge(1)
        sim.request_split(2)  # shard 2 exists now, not after the merge
        merged = sim.run_transition(WINDOW + 2)
        assert merged.reshard_kinds == ("merge",) and merged.n_shards == 2
        refused = sim.run_transition(WINDOW + 3)
        assert refused.reshards_aborted == 1
        assert refused.reshard_deferred == "shard-gone"
        assert sim.changes == []

    def test_a_split_behind_a_split_splits_the_shard_it_was_asked_for(self):
        sim = make_sim(
            int_store(WINDOW + 3), elastic=ElasticConfig(autoscale=False)
        )
        run_to(sim, WINDOW + 1)
        sim.request_split(0, split_key=100)
        upper = sim.request_split(2, split_key=500)  # [400, ...)
        first = sim.run_transition(WINDOW + 2)
        assert first.reshards == 1
        # The first split renumbered the upper shard; the queued split
        # still names it and reads its position when it runs.
        assert upper.shard_id == 3
        second = sim.run_transition(WINDOW + 3)
        assert (second.reshards, second.reshards_aborted) == (1, 0)
        assert sim.partitioner.split_points == (100, 200, 400, 500)
        assert [s.shard_id for s in sim.shards] == [0, 1, 2, 3, 4]
        assert sim.changes == []

    def test_a_merge_whose_partner_was_split_away_is_refused(self):
        sim = make_sim(
            int_store(WINDOW + 3), elastic=ElasticConfig(autoscale=False)
        )
        run_to(sim, WINDOW + 1)
        sim.request_split(1)
        sim.request_merge(0)  # shards 0 and 1 as they are now
        split = sim.run_transition(WINDOW + 2)
        assert split.reshard_kinds == ("split",) and split.n_shards == 4
        refused = sim.run_transition(WINDOW + 3)
        assert refused.reshards_aborted == 1
        assert refused.reshard_deferred == "shard-gone"
        assert refused.n_shards == 4 and sim.changes == []
        assert sim.partitioner.split_points[0] == 200

    def test_a_proposal_that_meets_a_busy_queue_is_recorded_unqueued(self):
        # The same cluster as above: the autoscaler wants shard 2 split
        # on day W, but the queue already holds the request for shard 1.
        sim = make_sim(
            int_store(WINDOW + 1),
            elastic=ElasticConfig(split_load_factor=1.5, max_shards=4),
            splits=(200, 201),
        )
        requested = sim.request_split(1)
        start = sim.run_start()
        assert sim.changes == [requested]
        assert start.autoscaler["proposed"][0]["shard_id"] == 2
        assert start.autoscaler["queued"] is None
        assert start.autoscaler["deferred_reason"] == "queue-busy"
        assert sim.obs.counters().get("cluster.elastic.proposed", 0) == 0

    def test_a_fixed_partitioner_is_refused_not_raised(self):
        # A one-shard range cluster routes through HashPartitioner(1).
        sim = make_sim(
            int_store(WINDOW + 2),
            elastic=ElasticConfig(autoscale=False, min_shards=1),
            n_shards=1,
            splits=(),
        )
        run_to(sim, WINDOW + 1)
        sim.request_split(0)
        stats = sim.run_transition(WINDOW + 2)
        assert stats.reshards_aborted == 1
        assert stats.reshard_deferred == "fixed-partitioner"
        assert stats.n_shards == 1 and sim.changes == []

    def test_a_partitioner_refusal_is_a_change_refusal(self):
        store = int_store(WINDOW + 1)
        sim = make_sim(store, elastic=ElasticConfig(autoscale=False))
        run_to(sim, WINDOW + 1)
        # An explicit key outside shard 1's range [200, 400).
        with pytest.raises(ChangeAborted) as excinfo:
            drive(sim.staged.steps(Split(sim, 1, 500), day=WINDOW + 2))
        assert excinfo.value.reason == "partitioner-refused"
        # A slot-hash shard that owns a single slot cannot split.
        sim.partitioner = SlotHashPartitioner((0,) + (1,) * 7 + (2,) * 8)
        with pytest.raises(ChangeAborted) as excinfo:
            drive(sim.staged.steps(Split(sim, 0), day=WINDOW + 2))
        assert excinfo.value.reason == "partitioner-refused"
        assert not sim.staged.journals

    def test_a_merge_of_two_designs_is_refused(self):
        sim = make_sim(
            int_store(WINDOW + 2), elastic=ElasticConfig(autoscale=False)
        )
        run_to(sim, WINDOW + 1)
        # Shard 2's replica runs a design of its own, as a retune leaves
        # it: its constituents cannot be merged with shard 1's by name.
        sim.shards[2].primary.scheme = scheme_by_name("REINDEX")(WINDOW, 1)
        sim.request_merge(1)
        with pytest.raises(ChangeAborted) as excinfo:
            drive(sim.staged.steps(sim.changes[0], day=WINDOW + 2))
        assert excinfo.value.reason == "designs-differ"


class TestAutoscalerPolicy:
    def test_proposes_split_of_hot_shard(self):
        scaler = Autoscaler(ElasticConfig(split_load_factor=2.0))
        decision = scaler.propose(
            day=9,
            busy_seconds=[1.0, 10.0, 1.0],
            requests=[5, 50, 5],
            under_replicated=False,
            last_action_day=None,
        )
        assert decision.queued is not None
        assert decision.queued.kind == "split"
        assert decision.queued.shard_id == 1

    def test_under_replication_defers_everything(self):
        scaler = Autoscaler(ElasticConfig())
        decision = scaler.propose(
            day=9,
            busy_seconds=[1.0, 10.0, 1.0],
            requests=[5, 50, 5],
            under_replicated=True,
            last_action_day=None,
        )
        assert decision.queued is None
        assert decision.deferred_reason == "under-replicated"

    def test_cooldown_observes_only(self):
        scaler = Autoscaler(ElasticConfig(cooldown_days=2))
        decision = scaler.propose(
            day=9,
            busy_seconds=[1.0, 10.0, 1.0],
            requests=[5, 50, 5],
            under_replicated=False,
            last_action_day=8,
        )
        assert decision.queued is None
        assert decision.deferred_reason == "cooldown"

    def test_max_shards_caps_splits(self):
        scaler = Autoscaler(ElasticConfig(max_shards=3))
        decision = scaler.propose(
            day=9,
            busy_seconds=[1.0, 10.0, 1.0],
            requests=[5, 50, 5],
            under_replicated=False,
            last_action_day=None,
        )
        assert decision.queued is None

    def test_proposes_merge_of_coldest_pair(self):
        scaler = Autoscaler(
            ElasticConfig(merge_load_factor=0.4, min_shards=2)
        )
        decision = scaler.propose(
            day=9,
            busy_seconds=[0.05, 0.05, 5.0, 5.0],
            requests=[1, 1, 40, 40],
            under_replicated=False,
            last_action_day=None,
        )
        assert decision.queued is not None
        assert decision.queued.kind == "merge"
        assert decision.queued.shard_id == 0

    def test_min_shards_blocks_merges(self):
        # The (0, 1) pair is cold enough to merge, but k == min_shards;
        # max_shards == k keeps the hot shard from proposing a split so
        # the merge guard is the one being exercised.
        scaler = Autoscaler(
            ElasticConfig(
                merge_load_factor=0.9, min_shards=3, max_shards=3
            )
        )
        decision = scaler.propose(
            day=9,
            busy_seconds=[0.05, 0.05, 1.0],
            requests=[1, 1, 10],
            under_replicated=False,
            last_action_day=None,
        )
        assert decision.queued is None
        scaler_loose = Autoscaler(
            ElasticConfig(
                merge_load_factor=0.9, min_shards=2, max_shards=3
            )
        )
        relaxed = scaler_loose.propose(
            day=9,
            busy_seconds=[0.05, 0.05, 1.0],
            requests=[1, 1, 10],
            under_replicated=False,
            last_action_day=None,
        )
        assert relaxed.queued is not None
        assert relaxed.queued.kind == "merge"

    def test_split_tiebreak_is_deterministic(self):
        scaler = Autoscaler(ElasticConfig(split_load_factor=1.5))
        decision = scaler.propose(
            day=9,
            busy_seconds=[8.0, 8.0, 0.1, 0.1],
            requests=[10, 10, 1, 1],
            under_replicated=False,
            last_action_day=None,
        )
        # Equal busy-seconds: the lower shard id wins, every run.
        assert decision.queued.shard_id == 0


class TestElasticOffByDefault:
    def test_day_stats_stay_inert_without_elastic(self):
        store = int_store(WINDOW + 2)
        sim = make_sim(store)
        run_to(sim, WINDOW + 2)
        stats = sim.result.days[-1]
        assert stats.reshards == 0
        assert stats.reshards_aborted == 0
        assert stats.reshard_deferred is None
        assert stats.autoscaler is None
        assert sim.changes == [] and sim.staged.journals == []

"""The ingest path against the forms it replaced (``tests/reference/ingest.py``).

A word became one object, samplers share one CDF and a day's distinct
words are routed once; none of that may change one record.  Every batch,
every rank and every shard store must be ``==`` to what the per-token
generator, the per-draw sampler and the per-token ``partition_store``
produce, and the ``day-turn``-shaped corpus is pinned by digest to the
value the commit before the change produced.

Then a shard's store became a view: what it materialises, posts and is
charged for must equal what the eager ``partition_store_copies`` lays
down, through a split and a merge too.
"""

import random

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    ElasticConfig,
    HashPartitioner,
    RangePartitioner,
    SlotHashPartitioner,
    partition_store,
)
from repro.core.records import PostingRun, Record, RecordStore
from repro.core.schemes import scheme_by_name
from repro.errors import WorkloadError
from repro.workloads.text import NetnewsGenerator, TextWorkloadConfig
from repro.workloads.zipf import ZipfSampler, heaps_vocabulary
from tests.conftest import make_store
from tests.reference.ingest import (
    PerDrawZipfSampler,
    PerTokenGenerator,
    corpus_digest,
    partition_store_copies,
    partition_store_per_token,
)

#: sha-256 of the day-turn-shaped corpus as ``de5201e`` generated it.
DAY_TURN_DIGEST = "f3555c0daa4a95ee129ebbfa9f539bf7765a06e0e9e7b6371efbe1103ba10f5b"

VOLUMES = {
    "config": None,
    "sequence": [7, 0, 12, 1, 0, 9],
    "callable": lambda day: (day * 5) % 11,
}


def assert_same_stores(got, want):
    assert len(got) == len(want)
    for ours, theirs in zip(got, want):
        assert ours.days == theirs.days
        for day in ours.days:
            assert ours.batch(day) == theirs.batch(day)
            assert ours.batch(day).entry_count == theirs.batch(day).entry_count
            assert ours.batch(day).data_bytes == theirs.batch(day).data_bytes


class TestGenerator:
    @pytest.mark.parametrize("seed", [0, 7, 41])
    @pytest.mark.parametrize("volume", VOLUMES, ids=str)
    @pytest.mark.parametrize("vocabulary", [1, 37, 1500])
    def test_every_batch_equals_the_per_token_generators(
        self, seed, volume, vocabulary
    ):
        config = TextWorkloadConfig(
            docs_per_day=9, words_per_doc=25, vocabulary=vocabulary, seed=seed
        )
        live = NetnewsGenerator(config, VOLUMES[volume])
        reference = PerTokenGenerator(NetnewsGenerator(config, VOLUMES[volume]))
        for day in range(1, 7):
            got, want = live.generate_day(day), reference.generate_day(day)
            assert got == want
            assert got.entry_count == want.entry_count
            assert got.data_bytes == want.data_bytes

    def test_day_turn_corpus_digest_is_the_parents(self):
        # A "faster sampler" that moves the stream fails here, in tier-1.
        store = RecordStore()
        NetnewsGenerator(
            TextWorkloadConfig(
                docs_per_day=500,
                words_per_doc=40,
                vocabulary=heaps_vocabulary(500 * 40),
                zipf_s=1.0,
                seed=7,
            )
        ).populate(store, 1, 10)
        assert corpus_digest(store) == DAY_TURN_DIGEST


class TestSampler:
    @pytest.mark.parametrize("vocabulary, s", [(1, 1.0), (50, 0.0), (4242, 1.0), (900, 1.3)])
    def test_first_ten_thousand_ranks(self, vocabulary, s):
        live = ZipfSampler(vocabulary, s, seed=19)
        reference = PerDrawZipfSampler(vocabulary, s, seed=19)
        # Mixed call shapes draw from one stream.
        got = live.sample_many(4000) + [live.sample() for _ in range(2000)]
        got += live.sample_many(4000)
        assert got == reference.sample_many(10_000)
        assert [live.probability(r) for r in range(1, vocabulary + 1)] == [
            reference.probability(r) for r in range(1, vocabulary + 1)
        ]


def text_store(seed=3):
    store = RecordStore()
    NetnewsGenerator(
        TextWorkloadConfig(docs_per_day=30, words_per_doc=12, vocabulary=200, seed=seed),
        volume=[30, 0, 18, 30],
    ).populate(store, 1, 4)
    return store


PARTITIONERS = {
    "hash": lambda: HashPartitioner(4),
    "slot-hash": lambda: SlotHashPartitioner.balanced(3, 16),
    "range": lambda: RangePartitioner(("w15", "w3", "w7")),
}


class TestPartitionStore:
    @pytest.mark.parametrize("kind", PARTITIONERS)
    def test_every_shard_store_equals_the_per_token_split(self, kind):
        store = text_store()
        assert_same_stores(
            partition_store(store, PARTITIONERS[kind]()),
            partition_store_per_token(store, PARTITIONERS[kind]()),
        )

    @pytest.mark.parametrize("kind", ["hash", "slot-hash"])
    def test_small_multi_valued_records(self, kind):
        store = make_store(12, values="abcdefghijklmnop")
        assert_same_stores(
            partition_store(store, PARTITIONERS[kind]()),
            partition_store_per_token(store, PARTITIONERS[kind]()),
        )

    def test_one_shard_is_the_store_itself(self):
        store = text_store()
        (only,) = partition_store(store, HashPartitioner(1))
        assert only is store

    def test_unhashable_values_are_routed_an_occurrence_at_a_time(self):
        store = RecordStore()
        store.add_records(1, [
            Record(1, 1, ("a", ["x", 1], "b", ["x", 1]), nbytes=80),
            Record(2, 1, ({"k": 2}, "c"), nbytes=33, info=4.5),
        ])
        store.add_records(2, [Record(3, 2, ("a", "b", "c", "d"), nbytes=7)])
        assert_same_stores(
            partition_store(store, HashPartitioner(3)),
            partition_store_per_token(store, HashPartitioner(3)),
        )

    def test_records_landing_whole_on_one_shard(self):
        store = RecordStore()
        store.add_records(1, [Record(i, 1, (i,), nbytes=10 + i) for i in range(1, 40)])
        store.add_records(2, [Record(40, 2, (5, 405, 805), nbytes=99, info="x")])
        for partitioner in (HashPartitioner(4), RangePartitioner((400, 800))):
            assert_same_stores(
                partition_store(store, partitioner),
                partition_store_per_token(store, partitioner),
            )

    def test_equal_keys_of_different_types_share_a_shard(self):
        # One dict slot routes 1, 1.0 and True; the reference asks the
        # partitioner's memo, which answers the same.
        store = RecordStore()
        store.add_records(1, [Record(1, 1, (1, "a", 2.0)), Record(2, 1, (1.0, 2, "b"))])
        assert_same_stores(
            partition_store(store, HashPartitioner(4)),
            partition_store_per_token(store, HashPartitioner(4)),
        )


def duplicates_store(seed):
    """Records that name a value twice, with bytes no share divides."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(1, 30)]
    store = RecordStore()
    rid = 0
    for day in range(1, 6):
        records = []
        for _ in range(rng.randint(0, 7)):
            values = rng.choices(words, k=rng.randint(2, 9))
            values.append(values[0])
            records.append(
                Record(rid := rid + 1, day, tuple(values), rng.randint(0, 97), rid % 3)
            )
        store.add_records(day, records)
    return store


def whole_records_store(seed):
    """Single-valued records (each lands whole on one shard), an empty
    day, and a day one shard takes all of."""
    rng = random.Random(seed)
    store = RecordStore()
    store.add_records(1, [
        Record(i, 1, (f"w{rng.randint(1, 99)}",), nbytes=10 + i) for i in range(1, 40)
    ])
    store.add_records(2, [])
    store.add_records(3, [Record(40 + i, 3, ("w50",), nbytes=9) for i in range(5)])
    return store


CORPORA = {
    "text": text_store,
    "multi-valued": lambda seed: make_store(12, seed=seed, values="abcdefghijklmnop"),
    "duplicates": duplicates_store,
    "whole-records": whole_records_store,
}


def assert_views_equal_copies(views, copies, days):
    """Every view materialises, posts and is charged what its copy holds."""
    assert_same_stores(views, copies)
    for view, copy in zip(views, copies):
        runs = view.runs_for(days + days)
        assert [run.day for run in runs] == days
        for run, day in zip(runs, days):
            # An ordered mapping: in-place inserts allocate in key order.
            assert list(run.grouped.items()) == list(
                PostingRun(copy.batch(day)).grouped.items()
            )
        assert list(view.grouped_for(days).items()) == list(
            copy.grouped_for(days).items()
        )
        for some in ([], days[:1], days[1::2], days, days + days[:2]):
            assert view.data_bytes_for(some) == copy.data_bytes_for(some)
        assert view.brute_scan(days[0], days[-1]) == copy.brute_scan(days[0], days[-1])


class TestShardViews:
    @pytest.mark.parametrize("seed", [0, 7, 41])
    @pytest.mark.parametrize("corpus", CORPORA)
    @pytest.mark.parametrize("kind", PARTITIONERS)
    def test_every_view_equals_the_eager_copy(self, kind, corpus, seed):
        store = CORPORA[corpus](seed)
        views = partition_store(store, PARTITIONERS[kind]())
        copies = partition_store_copies(store, PARTITIONERS[kind]())
        assert_views_equal_copies(views, copies, store.days)
        if corpus == "whole-records":
            assert any(not view.batch(2).records for view in views)
            assert sum(view.batch(3).entry_count > 0 for view in views) == 1

    def test_the_cuts_of_a_day_share_one_post(self, posted):
        store = text_store()
        views = partition_store(store, HashPartitioner(4))
        with store.holding_runs():
            held = [view.runs_for([1, 3]) for view in views]
            (source,) = store.runs_for([3])
            for runs in held:
                for value, entries in runs[1].grouped.items():
                    assert entries is source.grouped[value]
            assert sorted(v for runs in held for v in runs[1].grouped) == sorted(
                source.grouped
            )
        assert [batch.day for batch in posted] == [1, 3]
        # Nobody holds the source runs now; a view still finds its own.
        del source
        assert not store._runs
        assert [view.runs_for([1, 3]) for view in views] == held
        assert [batch.day for batch in posted] == [1, 3]

    def test_unheld_a_day_is_posted_for_each_view_that_asks(self, posted):
        # Correct, and k times the work: a caller with k builds to run
        # holds the source's runs across them (ClusterSimulation does).
        store = text_store()
        views = partition_store(store, HashPartitioner(4))
        held = [view.runs_for([1]) for view in views]
        assert [batch.day for batch in posted] == [1] * 4
        assert len({id(runs[0]) for runs in held}) == 4

    def test_unhashable_values_are_charged_alike_and_posted_by_neither(self):
        store = RecordStore()
        store.add_records(1, [
            Record(1, 1, ("a", ["x", 1], "b", ["x", 1]), nbytes=80),
            Record(2, 1, ({"k": 2}, "c"), nbytes=33, info=4.5),
        ])
        store.add_records(2, [Record(3, 2, ("a", "b", "c", "d"), nbytes=7)])
        views = partition_store(store, HashPartitioner(3))
        copies = partition_store_copies(store, HashPartitioner(3))
        assert_same_stores(views, copies)
        for view, copy in zip(views, copies):
            for days in ([1], [2], [1, 2]):
                assert view.data_bytes_for(days) == copy.data_bytes_for(days)
            with pytest.raises(TypeError):
                view.runs_for([1])
            assert list(view.runs_for([2])[0].grouped.items()) == list(
                copy.runs_for([2])[0].grouped.items()
            )

    @pytest.mark.parametrize("kind", PARTITIONERS)
    def test_a_day_added_to_the_source_later_is_every_views_day(self, kind):
        store = text_store()
        views = partition_store(store, PARTITIONERS[kind]())
        late = text_store(seed=5).batch(4).records
        store.add_records(9, [Record(r.record_id, 9, r.values, 31) for r in late])
        copies = partition_store_copies(store, PARTITIONERS[kind]())
        assert views[0].days == store.days and views[-1].has_day(9)
        assert_views_equal_copies(views, copies, store.days)

    def test_a_view_is_read_only_and_knows_only_the_sources_days(self):
        store = text_store()
        view = partition_store(store, HashPartitioner(2))[1]
        with pytest.raises(WorkloadError, match="read-only"):
            view.add_records(9, [])
        for ask in (view.batch, lambda day: view.runs_for([day]),
                    lambda day: view.data_bytes_for([day])):
            with pytest.raises(WorkloadError, match="no batch for day 9"):
                ask(9)

    def test_split_then_merge_keeps_the_copy_paths_bytes(self):
        """A resharded cluster's shards are views of the source store: a
        child's share of a record's bytes is floored once, from the
        source record, as one split of the source gives it."""
        rng = random.Random(17)
        store = RecordStore()
        rid = 0
        for day in range(1, 8):
            store.add_records(day, [
                Record(
                    rid := rid + 1,
                    day,
                    tuple(rng.randint(1, 600) for _ in range(rng.randint(1, 7))),
                    nbytes=rng.randint(1, 200),
                )
                for _ in range(12)
            ])
        sim = ClusterSimulation(
            lambda: scheme_by_name("REINDEX")(4, 2),
            store,
            cluster=ClusterConfig(
                n_shards=3,
                partitioner="range",
                range_splits=(200, 400),
                elastic=ElasticConfig(autoscale=False),
            ),
        )
        sim.run_start()
        copies = partition_store_copies(store, sim.partitioner)
        assert_views_equal_copies([s.store for s in sim.shards], copies, store.days)

        sim.request_split(1)
        assert sim.run_transition(5).reshards == 1
        copies = partition_store_copies(store, sim.partitioner)
        assert len(copies) == 4
        assert_views_equal_copies([s.store for s in sim.shards], copies, store.days)

        sim.request_merge(0)
        assert sim.run_transition(6).reshards == 1
        copies = partition_store_copies(store, sim.partitioner)
        assert len(copies) == 3
        assert_views_equal_copies([s.store for s in sim.shards], copies, store.days)

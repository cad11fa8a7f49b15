"""The ingest path against the forms it replaced (``tests/reference/ingest.py``).

A word became one object, samplers share one CDF and a day's distinct
words are routed once; none of that may change one record.  Every batch,
every rank and every shard store must be ``==`` to what the per-token
generator, the per-draw sampler and the per-token ``partition_store``
produce, and the ``day-turn``-shaped corpus is pinned by digest to the
value the commit before the change produced.
"""

import pytest

from repro.cluster import (
    HashPartitioner,
    RangePartitioner,
    SlotHashPartitioner,
    partition_store,
)
from repro.core.records import Record, RecordStore
from repro.workloads.text import NetnewsGenerator, TextWorkloadConfig
from repro.workloads.zipf import ZipfSampler, heaps_vocabulary
from tests.conftest import make_store
from tests.reference.ingest import (
    PerDrawZipfSampler,
    PerTokenGenerator,
    corpus_digest,
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


def text_store():
    store = RecordStore()
    NetnewsGenerator(
        TextWorkloadConfig(docs_per_day=30, words_per_doc=12, vocabulary=200, seed=3),
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

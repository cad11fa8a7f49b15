"""A word is one string: the sharing is counted, not assumed.

The generator's lexicon hands every document the same ``str`` for a word,
so the corpus, the shard stores ``partition_store`` makes of it and the
posting runs built over those hold as many ``str`` objects as there are
distinct words; samplers draw from one read-only CDF per
``(vocabulary, s)``; a ``Record`` carries no ``__dict__``.
``.github/scripts/footprint.py`` checks the same law at ``day-turn`` size.
"""

import gc
import pickle
import weakref
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.core.records import Record, RecordStore
from repro.core.schemes import scheme_by_name
from repro.index.updates import UpdateTechnique
from repro.workloads import zipf
from repro.workloads.text import NetnewsGenerator, TextWorkloadConfig
from repro.workloads.zipf import ZipfSampler
from tests.reference.ingest import PerDrawZipfSampler

WINDOW = 5
CONFIG = TextWorkloadConfig(
    docs_per_day=40, words_per_doc=30, vocabulary=600, seed=7
)


def words_of(store):
    return [
        value
        for day in store.days
        for record in store.batch(day).records
        for value in record.values
    ]


def assert_one_object_a_word(values):
    assert values
    assert len(set(map(id, values))) == len(set(values))


@pytest.fixture(scope="module")
def cluster():
    store = RecordStore()
    NetnewsGenerator(CONFIG).populate(store, 1, WINDOW + 2)
    sim = ClusterSimulation(
        lambda: scheme_by_name("REINDEX")(WINDOW, 2),
        store,
        technique=UpdateTechnique.SIMPLE_SHADOW,
        cluster=ClusterConfig(n_shards=4, replication=1),
    )
    sim.run_start()
    sim.run_transition(WINDOW + 1)
    sim.run_transition(WINDOW + 2)
    return sim


class TestOneStringAWord:
    def test_corpus(self, cluster):
        values = words_of(cluster.store)
        assert len(values) > 10 * len(set(values))  # the repetition is real
        assert_one_object_a_word(values)

    def test_shard_stores_share_the_corpus_strings(self, cluster):
        assert len(cluster.shards) == 4
        corpus = set(map(id, words_of(cluster.store)))
        for shard in cluster.shards:
            assert shard.store is not cluster.store
            assert_one_object_a_word(words_of(shard.store))
            assert set(map(id, words_of(shard.store))) <= corpus

    def test_posting_run_keys_are_the_corpus_strings(self, cluster):
        corpus = set(map(id, words_of(cluster.store)))
        keys = [
            value
            for shard in cluster.shards
            for run in shard.store.runs_for(shard.store.days)
            for value in run.grouped
        ]
        assert_one_object_a_word(keys)
        assert set(map(id, keys)) <= corpus

    def test_live_index_keys_are_the_corpus_strings(self, cluster):
        corpus = set(map(id, words_of(cluster.store)))
        keys = [
            bucket.value
            for shard in cluster.shards
            for replica in shard.replicas
            for index in replica.wave.live_constituents()
            for bucket in index.buckets()
        ]
        assert keys
        assert set(map(id, keys)) <= corpus

    def test_the_lexicon_is_the_generators_not_the_processs(self):
        first, second = NetnewsGenerator(CONFIG), NetnewsGenerator(CONFIG)
        a = first.generate_day(1).records[0].values
        b = second.generate_day(1).records[0].values
        assert a == b
        assert all(x is not y for x, y in zip(a, b))
        lexicon = weakref.ref(first._lexicon)
        del first
        gc.collect()
        assert lexicon() is None


class TestRecordHasNoDict:
    record = Record(3, 2, ("a", "b"), nbytes=40, info=1.5)

    def test_no_dict_no_new_attributes(self):
        assert not hasattr(self.record, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(self.record, "extra", 1)
        with pytest.raises(FrozenInstanceError):
            self.record.day = 9

    def test_replace_pickle_hash_compare(self):
        twin = Record(3, 2, ("a", "b"), nbytes=40, info=1.5)
        assert self.record == twin and hash(self.record) == hash(twin)
        assert replace(self.record, day=5) == Record(3, 5, ("a", "b"), 40, 1.5)
        assert replace(self.record, day=5) != self.record
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(self.record, protocol)) == self.record

    def test_validation_survives(self):
        with pytest.raises(ValueError):
            Record(1, 1, ())
        with pytest.raises(ValueError):
            Record(1, 1, ("a",), nbytes=-1)


class TestSharedCdf:
    def test_equal_distributions_share_one_read_only_table(self):
        a, b = ZipfSampler(321, 1.1, seed=1), ZipfSampler(321, 1.1, seed=2)
        assert a._cdf is b._cdf
        other = ZipfSampler(322, 1.1)
        assert other._cdf is not a._cdf
        assert ZipfSampler(321, 1.1, seed=3)._cdf is a._cdf
        assert isinstance(a._cdf, tuple)
        with pytest.raises(TypeError):
            a._cdf[0] = 0.5
        before = a._cdf
        a.sample_many(100), a.probability(5)
        assert a._cdf is before and b._cdf is before

    def test_a_spelling_of_s_gets_its_own_table(self):
        # rank**2 is exact, rank**2.0 is libm's: neither answers for the other.
        assert ZipfSampler(50, 2)._cdf is not ZipfSampler(50, 2.0)._cdf
        for s in (2, 2.0):
            assert ZipfSampler(50, s)._cdf == tuple(PerDrawZipfSampler(50, s)._cdf)

    def test_the_table_is_bounded(self):
        bound = zipf._cdf.cache_info().maxsize
        assert bound is not None and bound <= 16
        for vocabulary in range(1, 3 * bound):
            ZipfSampler(vocabulary)
        assert zipf._cdf.cache_info().currsize <= bound

    def test_a_corpus_builds_its_cdf_once(self):
        config = TextWorkloadConfig(docs_per_day=2, vocabulary=777, zipf_s=0.9)
        before = zipf._cdf.cache_info().misses
        NetnewsGenerator(config).populate(RecordStore(), 1, 20)
        assert zipf._cdf.cache_info().misses == before + 1

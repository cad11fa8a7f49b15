"""Tests for the synthetic Netnews document workload."""

import pytest

from repro.errors import WorkloadError
from repro.core.records import RecordStore
from repro.workloads.text import (
    NetnewsGenerator,
    TextWorkloadConfig,
    build_store,
)


class TestConfig:
    def test_defaults(self):
        config = TextWorkloadConfig()
        assert config.docs_per_day > 0
        assert config.vocabulary > 0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            TextWorkloadConfig(docs_per_day=-1)
        with pytest.raises(WorkloadError):
            TextWorkloadConfig(words_per_doc=0)

    def test_a_lexicon_no_sampler_would_take_is_refused_at_once(self):
        # Both used to construct fine and fail inside generate_day.
        with pytest.raises(WorkloadError):
            TextWorkloadConfig(vocabulary=0)
        with pytest.raises(WorkloadError):
            TextWorkloadConfig(zipf_s=-1.0)


class TestGeneration:
    def test_deterministic_per_day(self):
        config = TextWorkloadConfig(docs_per_day=5, seed=3)
        a = NetnewsGenerator(config).generate_day(4)
        b = NetnewsGenerator(config).generate_day(4)
        assert [r.values for r in a.records] == [r.values for r in b.records]

    def test_days_differ(self):
        config = TextWorkloadConfig(docs_per_day=5, seed=3)
        gen = NetnewsGenerator(config)
        a = gen.generate_day(1)
        b = gen.generate_day(2)
        assert [r.values for r in a.records] != [r.values for r in b.records]

    def test_record_ids_unique_across_days(self):
        gen = NetnewsGenerator(TextWorkloadConfig(docs_per_day=10))
        ids = []
        for day in (1, 2, 3):
            ids.extend(r.record_id for r in gen.generate_day(day).records)
        assert len(ids) == len(set(ids))

    def test_words_are_distinct_within_document(self):
        gen = NetnewsGenerator(TextWorkloadConfig(docs_per_day=20))
        for record in gen.generate_day(1).records:
            assert len(record.values) == len(set(record.values))

    def test_zipf_skew_shows_in_word_frequencies(self):
        config = TextWorkloadConfig(
            docs_per_day=200, words_per_doc=30, vocabulary=2000, seed=9
        )
        batch = NetnewsGenerator(config).generate_day(1)
        counts: dict[str, int] = {}
        for record in batch.records:
            for word in record.values:
                counts[word] = counts.get(word, 0) + 1
        assert counts.get("w1", 0) > counts.get("w1000", 0)


class TestVolume:
    def test_sequence_volume(self):
        gen = NetnewsGenerator(
            TextWorkloadConfig(docs_per_day=99), volume=[3, 5, 2]
        )
        assert gen.docs_for_day(1) == 3
        assert gen.docs_for_day(3) == 2
        assert len(gen.generate_day(2).records) == 5

    def test_sequence_out_of_range(self):
        gen = NetnewsGenerator(volume=[3])
        with pytest.raises(WorkloadError):
            gen.docs_for_day(2)

    def test_callable_volume(self):
        gen = NetnewsGenerator(volume=lambda day: day * 2)
        assert gen.docs_for_day(5) == 10

    def test_negative_volume_rejected(self):
        gen = NetnewsGenerator(volume=lambda day: -1)
        with pytest.raises(WorkloadError):
            gen.docs_for_day(1)

    def test_non_integer_volume_rejected(self):
        # Used to reach range() and raise a bare TypeError.
        gen = NetnewsGenerator(volume=lambda day: 2.5)
        with pytest.raises(WorkloadError):
            gen.docs_for_day(1)
        with pytest.raises(WorkloadError):
            NetnewsGenerator(volume=[3, "4"]).docs_for_day(2)

    def test_a_volume_failing_on_day_three_leaves_the_store_empty(self):
        volumes = {3: 2.5}
        gen = NetnewsGenerator(
            TextWorkloadConfig(docs_per_day=2),
            volume=lambda day: volumes.get(day, 2),
        )
        store = RecordStore()
        with pytest.raises(WorkloadError):
            gen.populate(store, 1, 4)
        assert store.days == []
        # ... and the generator unspent: the retry is the clean run.
        volumes[3] = 2
        gen.populate(store, 1, 4)
        clean = RecordStore()
        NetnewsGenerator(TextWorkloadConfig(docs_per_day=2)).populate(clean, 1, 4)
        assert [store.batch(d) for d in store.days] == [
            clean.batch(d) for d in clean.days
        ]


class TestPopulate:
    def test_populate_store(self):
        store = RecordStore()
        NetnewsGenerator(TextWorkloadConfig(docs_per_day=3)).populate(store, 1, 5)
        assert store.days == [1, 2, 3, 4, 5]
        assert all(store.batch(d).entry_count > 0 for d in store.days)

    def test_populate_empty_range_rejected(self):
        with pytest.raises(WorkloadError):
            NetnewsGenerator().populate(RecordStore(), 3, 2)

    def test_build_store_convenience(self):
        store = build_store(4, TextWorkloadConfig(docs_per_day=2))
        assert store.days == [1, 2, 3, 4]

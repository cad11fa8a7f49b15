"""Tests for records, day batches, and the record store."""

import pytest

from repro.core.records import DayBatch, PostingRun, Record, RecordStore
from repro.errors import WorkloadError
from repro.index.entry import Entry


class TestRecord:
    def test_requires_values(self):
        with pytest.raises(ValueError):
            Record(1, 1, values=())

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            Record(1, 1, values=("a",), nbytes=-1)


class TestDayBatch:
    def test_day_mismatch_rejected(self):
        with pytest.raises(WorkloadError):
            DayBatch(day=2, records=[Record(1, 1, ("a",))])

    def test_entry_count_counts_values(self):
        batch = DayBatch(
            day=1,
            records=[Record(1, 1, ("a", "b")), Record(2, 1, ("c",))],
        )
        assert batch.entry_count == 3

    def test_data_bytes(self):
        batch = DayBatch(
            day=1,
            records=[Record(1, 1, ("a",), nbytes=10), Record(2, 1, ("b",), nbytes=5)],
        )
        assert batch.data_bytes == 15

    def test_postings_carry_day_timestamp(self):
        batch = DayBatch(day=4, records=[Record(9, 4, ("x", "y"))])
        postings = list(batch.postings())
        assert postings == [("x", Entry(9, 4)), ("y", Entry(9, 4))]

    def test_grouped(self):
        batch = DayBatch(
            day=1, records=[Record(1, 1, ("a",)), Record(2, 1, ("a", "b"))]
        )
        grouped = PostingRun(batch).grouped
        assert [e.record_id for e in grouped["a"]] == [1, 2]
        assert [e.record_id for e in grouped["b"]] == [2]


class TestRecordStore:
    def test_add_and_fetch(self):
        store = RecordStore()
        store.add_records(1, [Record(1, 1, ("a",))])
        assert store.has_day(1)
        assert not store.has_day(2)
        assert store.batch(1).entry_count == 1
        assert store.days == [1]

    def test_duplicate_day_rejected(self):
        store = RecordStore()
        store.add_records(1, [Record(1, 1, ("a",))])
        with pytest.raises(WorkloadError):
            store.add_records(1, [Record(2, 1, ("b",))])

    def test_missing_day_rejected(self):
        with pytest.raises(WorkloadError):
            RecordStore().batch(9)

    def test_grouped_for_merges_days_in_order(self):
        store = RecordStore()
        store.add_records(2, [Record(20, 2, ("a",))])
        store.add_records(1, [Record(10, 1, ("a",))])
        grouped = store.grouped_for([2, 1])
        assert [e.record_id for e in grouped["a"]] == [10, 20]

    def test_data_bytes_for(self):
        store = RecordStore()
        store.add_records(1, [Record(1, 1, ("a",), nbytes=7)])
        store.add_records(2, [Record(2, 2, ("a",), nbytes=3)])
        assert store.data_bytes_for([1, 2]) == 10
        assert store.data_bytes_for([1, 1, 2]) == 10  # days deduplicated

    def test_brute_probe(self):
        store = RecordStore()
        store.add_records(1, [Record(1, 1, ("a", "b"))])
        store.add_records(2, [Record(2, 2, ("a",))])
        store.add_records(3, [Record(3, 3, ("a",))])
        hits = store.brute_probe("a", 2, 3)
        assert [e.record_id for e in hits] == [2, 3]
        assert store.brute_probe("zzz", 1, 3) == []

    def test_brute_scan(self):
        store = RecordStore()
        store.add_records(1, [Record(1, 1, ("a", "b"))])
        store.add_records(2, [Record(2, 2, ("c",))])
        hits = store.brute_scan(1, 1)
        assert [e.record_id for e in hits] == [1, 1]  # one per value

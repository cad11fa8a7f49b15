"""Tests for constituent indexes: inserts, deletes, probes, scans, drops."""

import pytest

from repro.errors import ConstituentIndexError
from repro.index import kernels
from repro.index.builder import build_packed_index
from repro.index.config import IndexConfig
from repro.index.constituent import ConstituentIndex
from repro.index.contiguous import ContiguousPolicy
from repro.index.entry import Entry


def grouped(*postings):
    out = {}
    for value, entry in postings:
        out.setdefault(value, []).append(entry)
    return out


class TestIncrementalInsert:
    def test_insert_creates_buckets(self, disk, config):
        idx = ConstituentIndex.create_empty(disk, config, name="I1")
        idx.insert_postings(
            grouped(("a", Entry(1, 1)), ("b", Entry(2, 1))), days=[1]
        )
        assert idx.entry_count == 2
        assert idx.days == {1}
        assert not idx.packed

    def test_appends_within_capacity_do_not_grow(self, disk):
        config = IndexConfig(
            contiguous=ContiguousPolicy(initial_entries=10, growth_factor=2.0)
        )
        idx = ConstituentIndex.create_empty(disk, config)
        idx.insert_postings(grouped(("a", Entry(1, 1))), days=[1])
        bytes_before = idx.allocated_bytes
        idx.insert_postings(grouped(("a", Entry(2, 2))), days=[2])
        assert idx.allocated_bytes == bytes_before

    def test_overflow_grows_by_g(self, disk):
        config = IndexConfig(
            contiguous=ContiguousPolicy(initial_entries=2, growth_factor=2.0),
        )
        idx = ConstituentIndex.create_empty(disk, config)
        idx.insert_postings(grouped(("a", Entry(1, 1)), ("a", Entry(2, 1))), [1])
        assert idx.allocated_bytes == 32
        idx.insert_postings(grouped(("a", Entry(3, 2))), [2])
        assert idx.allocated_bytes == 64  # doubled

    def test_overflow_charges_copy_io(self, disk):
        config = IndexConfig(
            contiguous=ContiguousPolicy(initial_entries=2, growth_factor=2.0),
        )
        idx = ConstituentIndex.create_empty(disk, config)
        idx.insert_postings(grouped(("a", Entry(1, 1)), ("a", Entry(2, 1))), [1])
        before = disk.snapshot()
        idx.insert_postings(grouped(("a", Entry(3, 2))), [2])
        delta = disk.snapshot() - before
        assert delta.bytes_read == 32  # old bucket copied out
        assert delta.bytes_written == 48  # full new bucket written

    def test_insert_into_packed_evicts_bucket(self, disk, config):
        idx = build_packed_index(
            disk, config, grouped(("a", Entry(1, 1)), ("b", Entry(2, 1))), [1]
        )
        assert idx.packed
        idx.insert_postings(grouped(("a", Entry(3, 2))), [2])
        assert not idx.packed
        entries, _ = idx.probe("a")
        assert [e.record_id for e in entries] == [1, 3]
        # The shared extent still pins space (dead slice) plus the new bucket.
        assert idx.allocated_bytes > idx.used_bytes

    def test_empty_insert_is_noop(self, disk, config):
        idx = ConstituentIndex.create_empty(disk, config)
        seconds = idx.insert_postings({}, days=[])
        assert seconds == 0.0
        assert idx.entry_count == 0


class TestDelete:
    def _two_day_index(self, disk, config):
        idx = ConstituentIndex.create_empty(disk, config, name="I1")
        idx.insert_postings(
            grouped(("a", Entry(1, 1)), ("a", Entry(2, 2)), ("b", Entry(3, 1))),
            days=[1, 2],
        )
        return idx

    def test_delete_removes_day(self, disk, config):
        idx = self._two_day_index(disk, config)
        idx.delete_days([1])
        assert idx.days == {2}
        entries, _ = idx.probe("a")
        assert [e.record_id for e in entries] == [2]
        assert idx.probe("b")[0] == []

    def test_empty_buckets_are_retired(self, disk, config):
        idx = self._two_day_index(disk, config)
        idx.delete_days([1])
        assert len(idx.directory) == 1  # "b" bucket removed entirely

    def test_delete_frees_space_when_index_empties(self, disk, config):
        idx = self._two_day_index(disk, config)
        idx.delete_days([1, 2])
        assert idx.entry_count == 0
        assert idx.allocated_bytes == 0

    def test_delete_missing_days_is_noop(self, disk, config):
        idx = self._two_day_index(disk, config)
        seconds = idx.delete_days([99])
        assert seconds == 0.0 or idx.entry_count == 3

    def test_sparse_bucket_shrinks(self, disk):
        config = IndexConfig(
            contiguous=ContiguousPolicy(
                initial_entries=2, growth_factor=2.0, shrink=True
            ),
        )
        idx = ConstituentIndex.create_empty(disk, config)
        postings = grouped(*[("a", Entry(i, 1)) for i in range(16)])
        idx.insert_postings(postings, [1])
        idx.insert_postings(grouped(("a", Entry(100, 2))), [2])
        big = idx.allocated_bytes
        idx.delete_days([1])
        assert idx.allocated_bytes < big

    def test_delete_from_packed_keeps_remaining(self, disk, config):
        idx = build_packed_index(
            disk, config, grouped(("a", Entry(1, 1)), ("a", Entry(2, 2))), [1, 2]
        )
        idx.delete_days([1])
        assert not idx.packed  # holes now
        entries, _ = idx.probe("a")
        assert [e.record_id for e in entries] == [2]


class TestQueries:
    def test_probe_miss_costs_nothing(self, disk, config):
        idx = ConstituentIndex.create_empty(disk, config)
        entries, seconds = idx.probe("ghost")
        assert entries == []
        assert seconds == 0.0

    def test_probe_cost_scales_with_bucket(self, disk, config):
        idx = ConstituentIndex.create_empty(disk, config)
        idx.insert_postings(grouped(*[("a", Entry(i, 1)) for i in range(50)]), [1])
        idx.insert_postings(grouped(("b", Entry(99, 1))), [1])
        _, big = idx.probe("a")
        _, small = idx.probe("b")
        assert big > small

    def test_timed_probe_filters_by_day(self, disk, config):
        idx = ConstituentIndex.create_empty(disk, config)
        idx.insert_postings(
            grouped(("a", Entry(1, 1)), ("a", Entry(2, 2)), ("a", Entry(3, 3))),
            [1, 2, 3],
        )
        # As a wave's batch filters: the bucket's run, cut to the range.
        ((bucket, _),) = idx.probe_batch_buckets(["a"])[0].values()
        entries, _ = kernels.select(bucket.run(), 2, 3)
        assert [e.record_id for e in entries] == [2, 3]

    def test_scan_returns_everything(self, disk, config):
        idx = ConstituentIndex.create_empty(disk, config)
        idx.insert_postings(grouped(("a", Entry(1, 1)), ("b", Entry(2, 1))), [1])
        entries, seconds = idx.scan()
        assert {e.record_id for e in entries} == {1, 2}
        assert seconds > 0

    def test_packed_scan_cheaper_than_unpacked(self, disk):
        config = IndexConfig(
            contiguous=ContiguousPolicy(initial_entries=16, growth_factor=2.0)
        )
        postings = grouped(*[(f"v{i}", Entry(i, 1)) for i in range(40)])
        packed = build_packed_index(disk, config, postings, [1])
        loose = ConstituentIndex.create_empty(disk, config)
        loose.insert_postings(postings, [1])
        _, packed_s = packed.scan()
        _, loose_s = loose.scan()
        assert packed_s < loose_s  # S vs S': the Table 9 distinction

    def test_timed_scan_filters(self, disk, config):
        idx = ConstituentIndex.create_empty(disk, config)
        idx.insert_postings(
            grouped(("a", Entry(1, 1)), ("b", Entry(2, 2))), [1, 2]
        )
        # As a wave's batch filters: the charged sweep, cut to the range.
        assert idx.charge_scan() > 0
        entries, _ = kernels.select(idx.sweep(), 2, 2)
        assert [e.record_id for e in entries] == [2]


class TestDrop:
    def test_drop_frees_all_space(self, disk, config):
        idx = ConstituentIndex.create_empty(disk, config)
        idx.insert_postings(grouped(("a", Entry(1, 1))), [1])
        assert disk.live_bytes > 0
        idx.drop()
        assert disk.live_bytes == 0
        assert idx.dropped

    def test_drop_costs_no_time(self, disk, config):
        idx = build_packed_index(disk, config, grouped(("a", Entry(1, 1))), [1])
        before = disk.clock
        idx.drop()
        assert disk.clock == before

    def test_use_after_drop_rejected(self, disk, config):
        idx = ConstituentIndex.create_empty(disk, config)
        idx.drop()
        with pytest.raises(ConstituentIndexError):
            idx.probe("a")
        with pytest.raises(ConstituentIndexError):
            idx.insert_postings({}, [])
        with pytest.raises(ConstituentIndexError):
            idx.drop()


class TestBufferPoolWorkingSet:
    """Regression: the working set must reach the buffer pool explicitly.

    ``allocated_bytes or None`` used to turn a 0-byte index into a
    "streaming" caller (``None``), bypassing the pool so the very first
    bucket updates paid full seeks even with a warm, oversized pool.
    """

    @pytest.fixture
    def warm_disk(self):
        from repro.storage.bufferpool import BufferPoolModel
        from repro.storage.disk import SimulatedDisk

        return SimulatedDisk(buffer_pool=BufferPoolModel(memory_bytes=1 << 30))

    def test_first_insert_into_empty_index_uses_pool(self, warm_disk, config):
        idx = ConstituentIndex.create_empty(warm_disk, config)
        before = warm_disk.stats.snapshot()
        idx.insert_postings(grouped(("a", Entry(1, 1))), [1])
        delta = warm_disk.stats.snapshot() - before
        assert delta.seeks == 0  # resident working set: seek absorbed

    def test_delete_from_resident_index_uses_pool(self, warm_disk, config):
        idx = ConstituentIndex.create_empty(warm_disk, config)
        idx.insert_postings(
            grouped(("a", Entry(1, 1)), ("b", Entry(2, 2))), [1, 2]
        )
        before = warm_disk.stats.snapshot()
        idx.delete_days([1])
        delta = warm_disk.stats.snapshot() - before
        assert delta.seeks == 0

    def test_min_miss_rate_still_charges_floor(self, config):
        from repro.storage.bufferpool import BufferPoolModel
        from repro.storage.disk import SimulatedDisk

        disk = SimulatedDisk(
            buffer_pool=BufferPoolModel(memory_bytes=1 << 30, min_miss_rate=0.5)
        )
        idx = ConstituentIndex.create_empty(disk, config)
        before = disk.stats.snapshot()
        idx.insert_postings(grouped(("a", Entry(1, 1))), [1])
        delta = disk.stats.snapshot() - before
        assert delta.seeks == pytest.approx(0.5)

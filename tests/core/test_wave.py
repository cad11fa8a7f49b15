"""Tests for the WaveIndex container and its access operations."""

import pytest

from repro.core.records import Record, RecordStore
from repro.core.wave import WaveIndex, constituent_names
from repro.errors import DegradedWindowError, WaveIndexError
from repro.index.builder import build_packed_index


def packed(disk, config, store, days, name):
    return build_packed_index(
        disk, config, store.grouped_for(days), days, name=name
    )


@pytest.fixture
def small_store():
    store = RecordStore()
    store.add_records(1, [Record(1, 1, ("a", "b"))])
    store.add_records(2, [Record(2, 2, ("a",))])
    store.add_records(3, [Record(3, 3, ("b",))])
    store.add_records(4, [Record(4, 4, ("a",))])
    return store


@pytest.fixture
def wave(disk, config, small_store):
    wave = WaveIndex(disk, config, n_indexes=2)
    wave.bind("I1", packed(disk, config, small_store, [1, 2], "I1"))
    wave.bind("I2", packed(disk, config, small_store, [3, 4], "I2"))
    return wave


class TestNames:
    def test_constituent_names(self):
        assert constituent_names(3) == ["I1", "I2", "I3"]

    def test_needs_at_least_one_index(self, disk, config):
        with pytest.raises(WaveIndexError):
            WaveIndex(disk, config, 0)

    def test_is_constituent(self, wave):
        assert wave.is_constituent("I1")
        assert not wave.is_constituent("Temp")


class TestBindings:
    def test_bind_drops_previous(self, disk, config, small_store):
        wave = WaveIndex(disk, config, 1)
        first = packed(disk, config, small_store, [1], "I1")
        second = packed(disk, config, small_store, [2], "I1")
        wave.bind("I1", first)
        wave.bind("I1", second)
        assert first.dropped
        assert wave.get("I1") is second

    def test_rebinding_same_index_does_not_drop(self, disk, config, small_store):
        wave = WaveIndex(disk, config, 1)
        idx = packed(disk, config, small_store, [1], "I1")
        wave.bind("I1", idx)
        wave.bind("I1", idx)
        assert not idx.dropped

    def test_get_unbound_rejected(self, disk, config):
        wave = WaveIndex(disk, config, 1)
        with pytest.raises(WaveIndexError):
            wave.get("I1")
        assert wave.get_optional("I1") is None

    def test_unbind_returns_live_index(self, wave):
        idx = wave.unbind("I1")
        assert not idx.dropped
        with pytest.raises(WaveIndexError):
            wave.get("I1")

    def test_covered_days(self, wave):
        assert wave.covered_days() == {1, 2, 3, 4}

    def test_days_by_name(self, wave):
        assert wave.days_by_name() == {"I1": {1, 2}, "I2": {3, 4}}

    def test_total_length(self, wave):
        assert wave.total_length_days == 4


class TestProbes:
    def test_probe_merges_across_constituents(self, wave):
        result = wave.index_probe("a")
        assert sorted(result.record_ids) == [1, 2, 4]
        assert result.indexes_probed == 2
        assert result.seconds > 0

    def test_timed_probe_skips_irrelevant_indexes(self, wave):
        result = wave.timed_index_probe("a", 1, 2)
        assert sorted(result.record_ids) == [1, 2]
        assert result.indexes_probed == 1  # I2 (days 3-4) never touched

    def test_timed_probe_filters_within_index(self, wave):
        result = wave.timed_index_probe("a", 2, 3)
        assert sorted(result.record_ids) == [2]
        assert result.indexes_probed == 2  # both intersect [2, 3]

    def test_empty_range_rejected(self, wave):
        with pytest.raises(WaveIndexError):
            wave.timed_index_probe("a", 5, 4)

    def test_probe_missing_value(self, wave):
        result = wave.index_probe("zzz")
        assert result.entries == ()
        assert result.indexes_probed == 2


class TestScans:
    def test_segment_scan_covers_everything(self, wave):
        result = wave.segment_scan()
        assert sorted(result.record_ids) == [1, 1, 2, 3, 4]  # rec1 has 2 values
        assert result.indexes_scanned == 2

    def test_timed_scan(self, wave):
        result = wave.timed_segment_scan(3, 4)
        assert sorted(result.record_ids) == [3, 4]
        assert result.indexes_scanned == 1

    def test_scan_empty_range_rejected(self, wave):
        with pytest.raises(WaveIndexError):
            wave.timed_segment_scan(2, 1)


class TestSpaceAccounting:
    def test_constituent_vs_total_bytes(self, disk, config, small_store, wave):
        temp = packed(disk, config, small_store, [1], "Temp")
        wave.bind("Temp", temp)
        assert wave.total_bytes > wave.constituent_bytes
        assert wave.constituent_bytes == (
            wave.get("I1").allocated_bytes + wave.get("I2").allocated_bytes
        )


class TestClusterAlignedProbe:
    def test_exact_when_range_covers_whole_clusters(self, wave):
        result, exact = wave.cluster_aligned_probe("a", 1, 4)
        assert exact
        assert sorted(result.record_ids) == [1, 2, 4]
        assert result.indexes_probed == 2

    def test_single_cluster_alignment(self, wave):
        result, exact = wave.cluster_aligned_probe("a", 1, 2)
        assert exact
        assert sorted(result.record_ids) == [1, 2]
        assert result.indexes_probed == 1

    def test_partial_overlap_reports_inexact(self, wave):
        result, exact = wave.cluster_aligned_probe("a", 2, 4)
        # I1 covers {1, 2}: day 1 is outside, so I1 is skipped and flagged.
        assert not exact
        assert sorted(result.record_ids) == [4]

    def test_matches_timed_probe_on_aligned_ranges(self, wave):
        aligned, exact = wave.cluster_aligned_probe("b", 1, 4)
        assert exact
        timed = wave.timed_index_probe("b", 1, 4)
        assert sorted(aligned.record_ids) == sorted(timed.record_ids)

    def test_empty_range_rejected(self, wave):
        import pytest

        from repro.errors import WaveIndexError

        with pytest.raises(WaveIndexError):
            wave.cluster_aligned_probe("a", 3, 2)

    def test_needed_offline_constituent_is_refused(self, wave):
        # A constituent declared dead must not be read into an answer
        # that claims to be exact and complete.
        wave.offline.add("I1")
        clock = wave.disk.clock
        with pytest.raises(DegradedWindowError):
            wave.timed_index_probe("a", 1, 4)
        with pytest.raises(DegradedWindowError):
            wave.cluster_aligned_probe("a", 1, 4)
        assert wave.disk.clock == clock
        # Ranges that would not have read I1 are unaffected.
        result, exact = wave.cluster_aligned_probe("a", 3, 4)
        assert exact and sorted(result.record_ids) == [4]
        result, exact = wave.cluster_aligned_probe("a", 2, 4)
        assert not exact and sorted(result.record_ids) == [4]

"""Tests for packed index construction."""

import pytest

from repro.index.builder import build_empty_index, build_packed_index
from repro.index.entry import Entry


def grouped(*postings):
    out = {}
    for value, entry in postings:
        out.setdefault(value, []).append(entry)
    return out


class TestBuildPacked:
    def test_packed_size_is_exact(self, disk, config):
        idx = build_packed_index(
            disk, config, grouped(("a", Entry(1, 1)), ("b", Entry(2, 1))), [1]
        )
        assert idx.packed
        assert idx.allocated_bytes == 32  # no slack whatsoever
        assert idx.used_bytes == 32

    def test_single_extent(self, disk, config):
        before = disk.live_extents
        build_packed_index(
            disk,
            config,
            grouped(*[(f"v{i}", Entry(i, 1)) for i in range(20)]),
            [1],
        )
        assert disk.live_extents == before + 1

    def test_build_charges_scan_and_write(self, disk, config):
        before = disk.snapshot()
        build_packed_index(
            disk,
            config,
            grouped(("a", Entry(1, 1))),
            [1],
            source_bytes=5_000,
        )
        delta = disk.snapshot() - before
        assert delta.bytes_read == 5_000  # one pass over the source records
        assert delta.bytes_written == 16  # the packed index itself

    def test_buckets_ordered_with_btree_directory(self, disk, btree_config):
        idx = build_packed_index(
            disk,
            btree_config,
            grouped(("c", Entry(3, 1)), ("a", Entry(1, 1)), ("b", Entry(2, 1))),
            [1],
        )
        assert [b.value for b in idx.buckets()] == ["a", "b", "c"]
        offsets = [b.offset_in_extent for b in idx.buckets()]
        assert offsets == sorted(offsets)

    def test_time_set(self, disk, config):
        idx = build_packed_index(
            disk, config, grouped(("a", Entry(1, 3))), days=[3, 4]
        )
        assert idx.days == {3, 4}

    def test_empty_build(self, disk, config):
        idx = build_packed_index(disk, config, {}, days=[])
        assert idx.packed
        assert idx.entry_count == 0
        assert idx.allocated_bytes == 0

    def test_values_with_empty_entry_lists_skipped(self, disk, config):
        idx = build_packed_index(
            disk, config, {"a": [Entry(1, 1)], "b": []}, [1]
        )
        assert [b.value for b in idx.buckets()] == ["a"]

    def test_probe_on_packed(self, disk, config):
        idx = build_packed_index(
            disk, config, grouped(("a", Entry(1, 1)), ("a", Entry(2, 1))), [1]
        )
        entries, seconds = idx.probe("a")
        assert [e.record_id for e in entries] == [1, 2]
        assert seconds == pytest.approx(
            0.014 + 2 * config.entry_size_bytes / 10_000_000
        )


class TestBuildEmpty:
    def test_empty_index(self, disk, config):
        idx = build_empty_index(disk, config, name="Temp")
        assert idx.name == "Temp"
        assert idx.entry_count == 0
        assert not idx.packed

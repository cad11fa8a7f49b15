"""Tests for the three update techniques (Section 2.1)."""

import pytest

from repro.index.builder import build_packed_index
from repro.index.constituent import ConstituentIndex
from repro.index.entry import Entry
from repro.index.updates import (
    UpdateTechnique,
    add_to_index,
    clone_index,
    delete_from_index,
    packed_rewrite,
)


def grouped(*postings):
    out = {}
    for value, entry in postings:
        out.setdefault(value, []).append(entry)
    return out


def two_day_index(disk, config):
    return build_packed_index(
        disk,
        config,
        grouped(("a", Entry(1, 1)), ("a", Entry(2, 2)), ("b", Entry(3, 1))),
        [1, 2],
    )


class TestClone:
    def test_clone_preserves_contents_and_packedness(self, disk, config):
        idx = two_day_index(disk, config)
        copy = clone_index(idx, name="shadow")
        assert copy.packed
        assert copy.days == idx.days
        assert sorted(e.record_id for e in copy.all_entries()) == [1, 2, 3]
        # Source untouched.
        assert sorted(e.record_id for e in idx.all_entries()) == [1, 2, 3]

    def test_clone_of_unpacked_preserves_slack(self, disk, config):
        idx = ConstituentIndex.create_empty(disk, config)
        idx.insert_postings(grouped(("a", Entry(1, 1))), [1])
        copy = clone_index(idx)
        assert not copy.packed
        assert copy.allocated_bytes == idx.allocated_bytes

    def test_clone_doubles_space_until_drop(self, disk, config):
        idx = two_day_index(disk, config)
        base = disk.live_bytes
        copy = clone_index(idx)
        assert disk.live_bytes == 2 * base
        idx.drop()
        assert disk.live_bytes == base
        assert copy.entry_count == 3

    def test_clone_charges_read_and_write(self, disk, config):
        idx = two_day_index(disk, config)
        before = disk.snapshot()
        clone_index(idx)
        delta = disk.snapshot() - before
        assert delta.bytes_read == idx.allocated_bytes
        assert delta.bytes_written == idx.allocated_bytes


class TestPackedRewrite:
    def test_rewrite_merges_and_deletes(self, disk, config):
        idx = two_day_index(disk, config)
        result = packed_rewrite(
            idx,
            grouped(("a", Entry(9, 3)), ("c", Entry(10, 3))),
            insert_days=[3],
            delete_days=[1],
        )
        assert result.packed
        assert result.days == {2, 3}
        assert sorted(e.record_id for e in result.all_entries()) == [2, 9, 10]
        # Old index still alive for the caller to swap out.
        assert idx.entry_count == 3

    def test_rewrite_is_exactly_sized(self, disk, config):
        idx = two_day_index(disk, config)
        result = packed_rewrite(idx, {}, (), delete_days=[1])
        assert result.allocated_bytes == result.used_bytes == 16

    def test_temp_index_freed(self, disk, config):
        idx = two_day_index(disk, config)
        base = disk.live_bytes
        result = packed_rewrite(idx, grouped(("z", Entry(50, 3))), [3], ())
        # Live: old index + new result, no temp left behind.
        assert disk.live_bytes == base + result.allocated_bytes


class TestAddToIndex:
    @pytest.mark.parametrize("technique", list(UpdateTechnique))
    def test_contents_identical_across_techniques(self, disk, config, technique):
        idx = two_day_index(disk, config)
        result = add_to_index(
            idx, grouped(("a", Entry(9, 3))), [3], technique
        )
        assert sorted(e.record_id for e in result.all_entries()) == [1, 2, 3, 9]
        assert result.days == {1, 2, 3}

    def test_in_place_returns_same_object(self, disk, config):
        idx = two_day_index(disk, config)
        result = add_to_index(
            idx, grouped(("a", Entry(9, 3))), [3], UpdateTechnique.IN_PLACE
        )
        assert result is idx
        assert not result.packed

    def test_simple_shadow_returns_new_unpacked(self, disk, config):
        idx = two_day_index(disk, config)
        result = add_to_index(
            idx, grouped(("a", Entry(9, 3))), [3], UpdateTechnique.SIMPLE_SHADOW
        )
        assert result is not idx
        assert not result.packed
        assert idx.entry_count == 3  # original untouched until dropped

    def test_packed_shadow_returns_new_packed(self, disk, config):
        idx = two_day_index(disk, config)
        result = add_to_index(
            idx, grouped(("a", Entry(9, 3))), [3], UpdateTechnique.PACKED_SHADOW
        )
        assert result is not idx
        assert result.packed
        assert result.allocated_bytes == result.used_bytes


class TestDeleteFromIndex:
    @pytest.mark.parametrize("technique", list(UpdateTechnique))
    def test_contents_identical_across_techniques(self, disk, config, technique):
        idx = two_day_index(disk, config)
        result = delete_from_index(idx, [1], technique)
        assert sorted(e.record_id for e in result.all_entries()) == [2]
        assert result.days == {2}

    def test_packed_shadow_delete_repacks(self, disk, config):
        idx = two_day_index(disk, config)
        idx.insert_postings(grouped(("c", Entry(7, 2))), [2])  # unpack it
        result = delete_from_index(idx, [1], UpdateTechnique.PACKED_SHADOW)
        assert result.packed
        assert result.allocated_bytes == result.used_bytes

    def test_unknown_technique_rejected(self, disk, config):
        idx = two_day_index(disk, config)
        with pytest.raises(ValueError):
            add_to_index(idx, {}, [], "not-a-technique")
        with pytest.raises(ValueError):
            delete_from_index(idx, [], "not-a-technique")

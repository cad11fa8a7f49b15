"""Tests for exact wave-index persistence (no record store needed)."""

import pytest

from repro.core.executor import PlanExecutor
from repro.core.persistence import (
    BINARY_MAGIC,
    SNAPSHOT_VERSION,
    dump_wave,
    load_wave,
    wave_from_bytes,
    wave_from_json,
    wave_to_bytes,
    wave_to_json,
)
from repro.core.records import Record, RecordStore
from repro.core.schemes import ALL_SCHEMES, DelScheme
from repro.core.wave import WaveIndex
from repro.errors import WaveIndexError
from repro.index.config import IndexConfig
from repro.index.updates import UpdateTechnique
from repro.storage.disk import SimulatedDisk
from tests.conftest import make_store

WINDOW, N, LAST = 7, 3, 16


def maintained_wave(scheme_cls, store, technique=UpdateTechnique.SIMPLE_SHADOW):
    disk = SimulatedDisk()
    wave = WaveIndex(disk, IndexConfig(), N)
    executor = PlanExecutor(wave, store, technique)
    scheme = scheme_cls(WINDOW, N)
    executor.execute(scheme.start_ops())
    for day in range(WINDOW + 1, LAST + 1):
        executor.execute(scheme.transition_ops(day))
    return wave


@pytest.mark.parametrize("scheme_cls", ALL_SCHEMES, ids=lambda c: c.name)
class TestRoundTrip:
    def test_queries_identical_after_reload(self, scheme_cls):
        store = make_store(LAST, seed=41)
        original = maintained_wave(scheme_cls, store)
        text = wave_to_json(original)

        restored = wave_from_json(text, SimulatedDisk(), IndexConfig())
        assert restored.days_by_name() == original.days_by_name()
        lo, hi = LAST - WINDOW + 1, LAST
        for value in "abcdefgh":
            assert sorted(
                restored.timed_index_probe(value, lo, hi).record_ids
            ) == sorted(original.timed_index_probe(value, lo, hi).record_ids)
        assert sorted(restored.segment_scan().record_ids) == sorted(
            original.segment_scan().record_ids
        )

    def test_packedness_preserved(self, scheme_cls):
        store = make_store(LAST, seed=42)
        original = maintained_wave(
            scheme_cls, store, UpdateTechnique.PACKED_SHADOW
        )
        restored = wave_from_json(
            wave_to_json(original), SimulatedDisk(), IndexConfig()
        )
        for name, index in original.bindings.items():
            assert restored.get(name).packed == index.packed, name


class TestFormat:
    def _simple_wave(self):
        store = RecordStore()
        store.add_records(
            1, [Record(1, 1, ("alpha", 7), info=3.5), Record(2, 1, (7,))]
        )
        store.add_records(2, [Record(3, 2, ("alpha",))])
        disk = SimulatedDisk()
        wave = WaveIndex(disk, IndexConfig(), 1)
        executor = PlanExecutor(wave, store, UpdateTechnique.IN_PLACE)
        scheme = DelScheme(2, 1)
        executor.execute(scheme.start_ops())
        return wave

    def test_mixed_value_types_roundtrip(self):
        wave = self._simple_wave()
        restored = wave_from_json(
            wave_to_json(wave), SimulatedDisk(), IndexConfig()
        )
        # int key 7 and str key "alpha" stay distinct through JSON.
        assert sorted(restored.index_probe(7).record_ids) == [1, 2]
        assert sorted(restored.index_probe("alpha").record_ids) == [1, 3]

    def test_info_payloads_roundtrip(self):
        wave = self._simple_wave()
        restored = wave_from_json(
            wave_to_json(wave), SimulatedDisk(), IndexConfig()
        )
        infos = {
            e.record_id: e.info
            for e in restored.index_probe("alpha").entries
        }
        assert infos[1] == 3.5
        assert infos[3] is None

    def test_version_checked(self):
        wave = self._simple_wave()
        snapshot = dump_wave(wave)
        snapshot["version"] = 99
        with pytest.raises(WaveIndexError):
            load_wave(snapshot, SimulatedDisk(), IndexConfig())

    def test_malformed_rejected(self):
        with pytest.raises(WaveIndexError):
            wave_from_json("{}", SimulatedDisk(), IndexConfig())

    def test_unserialisable_value_rejected(self):
        store = RecordStore()
        store.add_records(1, [Record(1, 1, ((1, 2),))])  # tuple-valued key
        disk = SimulatedDisk()
        wave = WaveIndex(disk, IndexConfig(), 1)
        executor = PlanExecutor(wave, store, UpdateTechnique.IN_PLACE)
        scheme = DelScheme(1, 1)
        executor.execute(scheme.start_ops())
        with pytest.raises(WaveIndexError):
            dump_wave(wave)


@pytest.mark.parametrize("scheme_cls", ALL_SCHEMES, ids=lambda c: c.name)
class TestBinaryRoundTrip:
    """The packed binary snapshot must round-trip exactly like JSON."""

    def test_restored_wave_matches_json_snapshot(self, scheme_cls):
        store = make_store(LAST, seed=41)
        original = maintained_wave(scheme_cls, store)
        restored = wave_from_bytes(
            wave_to_bytes(original), SimulatedDisk(), IndexConfig()
        )
        # wave_to_json is the canonical full-state projection: identical
        # JSON means identical bindings, days, packedness, and entries.
        assert wave_to_json(restored) == wave_to_json(original)

    def test_header_and_reencode_stability(self, scheme_cls):
        store = make_store(LAST, seed=41)
        original = maintained_wave(scheme_cls, store)
        data = wave_to_bytes(original)
        assert data[:4] == BINARY_MAGIC
        restored = wave_from_bytes(data, SimulatedDisk(), IndexConfig())
        assert wave_to_bytes(restored) == data


class TestBinaryFormat:
    def _simple_wave(self):
        store = RecordStore()
        store.add_records(
            1, [Record(1, 1, ("alpha", 7), info=3.5), Record(2, 1, (7,))]
        )
        store.add_records(2, [Record(3, 2, ("alpha",))])
        disk = SimulatedDisk()
        wave = WaveIndex(disk, IndexConfig(), 1)
        executor = PlanExecutor(wave, store, UpdateTechnique.IN_PLACE)
        scheme = DelScheme(2, 1)
        executor.execute(scheme.start_ops())
        return wave

    def test_float_info_round_trips_exactly(self):
        # JSON would round-trip 3.5 fine but mangles e.g. signalling
        # payloads; the binary path stores the raw IEEE-754 bits.
        wave = self._simple_wave()
        restored = wave_from_bytes(
            wave_to_bytes(wave), SimulatedDisk(), IndexConfig()
        )
        infos = {
            e.record_id: e.info
            for e in restored.index_probe("alpha").entries
        }
        assert infos[1] == 3.5 and type(infos[1]) is float
        assert infos[3] is None

    def test_truncated_body_rejected(self):
        data = wave_to_bytes(self._simple_wave())
        with pytest.raises(WaveIndexError):
            wave_from_bytes(data[:-3], SimulatedDisk(), IndexConfig())

    def test_truncated_header_rejected(self):
        with pytest.raises(WaveIndexError):
            wave_from_bytes(b"WS", SimulatedDisk(), IndexConfig())

    def test_bad_magic_rejected(self):
        data = wave_to_bytes(self._simple_wave())
        with pytest.raises(WaveIndexError):
            wave_from_bytes(
                b"XXXX" + data[4:], SimulatedDisk(), IndexConfig()
            )

    def test_malformed_directory_rejected(self):
        import struct as _struct

        directory = b"{not json"
        data = (
            _struct.pack("<4sIQ", BINARY_MAGIC, SNAPSHOT_VERSION, len(directory))
            + directory
        )
        with pytest.raises(WaveIndexError):
            wave_from_bytes(data, SimulatedDisk(), IndexConfig())

    def test_batch_encoder_does_not_change_bytes(self, monkeypatch):
        from repro.index import codec

        wave = self._simple_wave()
        batch = wave_to_bytes(wave)
        monkeypatch.setattr(codec, "encode_entries", codec.encode_entries_object)
        assert wave_to_bytes(wave) == batch

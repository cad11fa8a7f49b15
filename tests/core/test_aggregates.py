"""Tests for aggregate scans over wave indexes."""

import pytest

from repro.core import aggregates
from repro.core.executor import PlanExecutor
from repro.core.records import Record, RecordStore
from repro.core.schemes import DelScheme
from repro.core.wave import WaveIndex
from repro.errors import WaveIndexError
from repro.index.config import IndexConfig
from repro.index.updates import UpdateTechnique
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def sales_wave():
    """A 6-day window of per-salesperson sale amounts."""
    store = RecordStore()
    amounts = {}
    rid = 0
    for day in range(1, 9):
        records = []
        for person, amount in (("sue", 10.0 * day), ("lee", 5.0), ("kim", 2.5)):
            rid += 1
            records.append(
                Record(rid, day, values=(person,), nbytes=40, info=amount)
            )
            amounts.setdefault(person, {})[day] = amount
        store.add_records(day, records)

    disk = SimulatedDisk()
    wave = WaveIndex(disk, IndexConfig(), 2)
    executor = PlanExecutor(wave, store, UpdateTechnique.SIMPLE_SHADOW)
    scheme = DelScheme(6, 2)
    executor.execute(scheme.start_ops())
    for day in (7, 8):
        executor.execute(scheme.transition_ops(day))
    return wave, amounts  # window now covers days 3..8


class TestScalars:
    def test_count(self, sales_wave):
        wave, _ = sales_wave
        result = aggregates.count(wave, 3, 8)
        assert result.value == 18  # 3 people x 6 days
        assert result.entries_scanned == 18
        assert result.seconds > 0

    def test_total(self, sales_wave):
        wave, _ = sales_wave
        result = aggregates.total(wave, 3, 8)
        expected = sum(10.0 * d + 5.0 + 2.5 for d in range(3, 9))
        assert result.value == pytest.approx(expected)

    def test_total_subrange(self, sales_wave):
        wave, _ = sales_wave
        result = aggregates.total(wave, 7, 8)
        assert result.value == pytest.approx(10.0 * 7 + 10.0 * 8 + 2 * 7.5)

    def test_min_max(self, sales_wave):
        wave, _ = sales_wave
        assert aggregates.minimum(wave, 3, 8).value == 2.5
        assert aggregates.maximum(wave, 3, 8).value == 80.0

    def test_mean(self, sales_wave):
        wave, _ = sales_wave
        result = aggregates.mean(wave, 3, 8)
        assert result.value == pytest.approx(
            aggregates.total(wave, 3, 8).value / 18
        )

    def test_empty_range_values(self, sales_wave):
        wave, _ = sales_wave
        assert aggregates.count(wave, 100, 200).value == 0
        assert aggregates.minimum(wave, 100, 200).value is None
        assert aggregates.mean(wave, 100, 200).value is None
        assert aggregates.total(wave, 100, 200).value == 0.0


class TestGroupTotals:
    def test_by_salesperson(self, sales_wave):
        wave, _ = sales_wave
        totals, seconds = aggregates.group_totals(wave, 3, 8)
        assert totals["lee"] == pytest.approx(6 * 5.0)
        assert totals["kim"] == pytest.approx(6 * 2.5)
        assert totals["sue"] == pytest.approx(sum(10.0 * d for d in range(3, 9)))
        assert seconds > 0

    def test_charges_a_scan_and_materialises_none(self, sales_wave):
        """Same seconds as scanning the relevant constituents; the report
        walks the buckets itself, so no sweep is built for it to pin."""
        wave, _ = sales_wave
        clock = wave.disk.clock
        _, seconds = aggregates.group_totals(wave, 3, 8)
        assert seconds == pytest.approx(wave.disk.clock - clock)
        assert all(index._sweep is None for index in wave.live_constituents())
        # Checked last: the comparison scan builds the sweeps it reads.
        assert seconds == wave.timed_segment_scan(3, 8).seconds

    def test_invalid_range(self, sales_wave):
        wave, _ = sales_wave
        with pytest.raises(WaveIndexError):
            aggregates.group_totals(wave, 5, 4)


class TestErrors:
    def test_non_numeric_info_rejected(self):
        store = RecordStore()
        store.add_records(1, [Record(1, 1, ("x",), info="not-a-number")])
        store.add_records(2, [Record(2, 2, ("x",), info=1.0)])
        disk = SimulatedDisk()
        wave = WaveIndex(disk, IndexConfig(), 1)
        executor = PlanExecutor(wave, store, UpdateTechnique.IN_PLACE)
        scheme = DelScheme(2, 1)
        executor.execute(scheme.start_ops())
        with pytest.raises(WaveIndexError):
            aggregates.total(wave, 1, 2)

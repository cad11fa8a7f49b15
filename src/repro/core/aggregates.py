"""Aggregate queries over wave indexes.

Section 2 motivates packed indexes with aggregate scans: "queries that
compute some aggregate such as sum, min or max typically scan the whole
index".  These helpers run such aggregates as ``TimedSegmentScan``s,
reading the per-entry associated information (``a_i`` — e.g. a sale amount
stored alongside the record pointer) and folding it in one pass.

All helpers return an :class:`AggregateResult` carrying the value and the
scan's simulated cost, so the packed-versus-unpacked scan trade-off is
directly observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..errors import WaveIndexError
from .wave import NEG_INF, POS_INF, WaveIndex


@dataclass(frozen=True)
class AggregateResult:
    """Outcome of an aggregate segment scan."""

    value: float | None
    entries_scanned: int
    seconds: float
    indexes_scanned: int


def _numeric_info(entry) -> float:
    info = entry.info
    if not isinstance(info, (int, float)):
        raise WaveIndexError(
            f"entry for record {entry.record_id} has non-numeric info "
            f"{info!r}; aggregates need numeric associated information"
        )
    return float(info)


def _scan_fold(
    wave: WaveIndex,
    t1: int,
    t2: int,
    fold: Callable[[list[float]], float | None],
) -> AggregateResult:
    scan = wave.timed_segment_scan(t1, t2)
    values = [_numeric_info(e) for e in scan.entries]
    return AggregateResult(
        value=fold(values),
        entries_scanned=len(scan.entries),
        seconds=scan.seconds,
        indexes_scanned=scan.indexes_scanned,
    )


def count(wave: WaveIndex, t1: int = NEG_INF, t2: int = POS_INF) -> AggregateResult:
    """Count entries inserted in ``[t1, t2]``."""
    scan = wave.timed_segment_scan(t1, t2)
    return AggregateResult(
        value=float(len(scan.entries)),
        entries_scanned=len(scan.entries),
        seconds=scan.seconds,
        indexes_scanned=scan.indexes_scanned,
    )


def total(wave: WaveIndex, t1: int = NEG_INF, t2: int = POS_INF) -> AggregateResult:
    """Sum the entries' associated values over ``[t1, t2]``."""
    return _scan_fold(wave, t1, t2, lambda vs: sum(vs) if vs else 0.0)


def minimum(wave: WaveIndex, t1: int = NEG_INF, t2: int = POS_INF) -> AggregateResult:
    """Minimum associated value over ``[t1, t2]`` (``None`` if empty)."""
    return _scan_fold(wave, t1, t2, lambda vs: min(vs) if vs else None)


def maximum(wave: WaveIndex, t1: int = NEG_INF, t2: int = POS_INF) -> AggregateResult:
    """Maximum associated value over ``[t1, t2]`` (``None`` if empty)."""
    return _scan_fold(wave, t1, t2, lambda vs: max(vs) if vs else None)


def mean(wave: WaveIndex, t1: int = NEG_INF, t2: int = POS_INF) -> AggregateResult:
    """Mean associated value over ``[t1, t2]`` (``None`` if empty)."""
    return _scan_fold(
        wave, t1, t2, lambda vs: (sum(vs) / len(vs)) if vs else None
    )


def group_totals(
    wave: WaveIndex, t1: int = NEG_INF, t2: int = POS_INF
) -> tuple[dict[Any, float], float]:
    """Sum associated values per search value over ``[t1, t2]``.

    The paper's running example: "aggregate yearly sales by sales person".
    Groups by each constituent bucket's search value, so one pass over the
    wave index yields the whole report.

    Returns:
        ``(totals by search value, scan seconds)``.
    """
    if t1 > t2:
        raise WaveIndexError(f"empty time range [{t1}, {t2}]")
    totals: dict[Any, float] = {}
    seconds = 0.0
    for index in wave.live_constituents():
        if not any(t1 <= d <= t2 for d in index.time_set):
            continue
        seconds += index.charge_scan()
        for bucket in index.buckets():
            for entry in bucket.entries:
                if t1 <= entry.day <= t2:
                    totals[bucket.value] = totals.get(
                        bucket.value, 0.0
                    ) + _numeric_info(entry)
    return totals, seconds

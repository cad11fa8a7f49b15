"""Day-column kernels: how the read path filters entries by day range.

Once the simulated I/O model is warm, real wall-clock time of a read is
dominated by the per-entry timestamp filter (millions of ``e.day``
attribute reads per batch when done object by object).  This module is
where that filter lives — ``Bucket.select``, the constituents' timed
probes and scans, and :meth:`~repro.core.wave.WaveIndex.probe_many` /
``scan_many`` result assembly all come here — and it runs on contiguous
buffers:

* each bucket's insert days are mirrored into a compact ``array('q')``
  **day column**, built lazily and maintained incrementally on append
  (:func:`bucket_day_column`);
* a whole constituent's scan-order entries and their day column are
  one immutable :class:`Sweep`, built once per mutation by
  :meth:`~repro.index.constituent.ConstituentIndex.sweep` (which owns
  its lifetime) from the flat entry list — never from the bucket
  columns, so a scan leaves no state on the buckets;
* day-range filters run on the column instead of the entry objects —
  two ``bisect`` calls and a slice when the column is non-decreasing
  (the common case: entries arrive in day order); when it is not,
  bounds checks (whole bucket in / out of range), then a NumPy mask,
  and only as a last resort the object-level comprehension (a sweep
  brings its min / max day along, so its bounds checks scan nothing);
* the filtered result is a *list slice* or an indexed gather of the
  original ``Entry`` objects, so answers equal the plain comprehension
  element for element.

There is no switch and no second implementation in ``src/``: the
object-level batch paths these kernels replaced live on as test oracles
(``tests/reference/batch.py``), and
``tests/core/test_vectorized_equivalence.py`` holds ``probe_many`` /
``scan_many`` to them — answers, cost summaries, clock, I/O and cache
counters.  NumPy is optional: without it the sorted-column and bounds
fast paths still apply, and an unsorted column falls back to
:func:`filter_entries_object`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

try:  # pragma: no cover - exercised implicitly by both CI matrices
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less environments
    _np = None

if TYPE_CHECKING:
    from .bucket import Bucket
    from .entry import Entry

# ----------------------------------------------------------------------
# Day columns
# ----------------------------------------------------------------------


def day_column(entries: Sequence["Entry"]) -> array:
    """Return the insert days of ``entries`` as a compact ``array('q')``."""
    return array("q", (e.day for e in entries))


def is_nondecreasing(column: array) -> bool:
    """Return ``True`` if ``column`` is sorted in non-decreasing order."""
    return all(column[i] <= column[i + 1] for i in range(len(column) - 1))


def bucket_day_column(bucket: "Bucket") -> tuple[array, bool]:
    """Return ``bucket``'s cached ``(day_column, is_sorted)`` pair.

    The column is built on first use and extended incrementally by
    :meth:`~repro.index.bucket.Bucket.append_entries`; wholesale entry
    replacement (``remove_days``) invalidates it.  Entries arrive in
    insert-day order in every maintenance path, so the sorted flag is
    almost always ``True`` — it is *checked*, never assumed.
    """
    entries = bucket.entries
    column = bucket._day_column
    if column is None or len(column) != len(entries):
        column = day_column(entries)
        bucket._day_column = column
        bucket._day_column_sorted = is_nondecreasing(column)
    return column, bucket._day_column_sorted


# ----------------------------------------------------------------------
# Day-range filtering
# ----------------------------------------------------------------------


def filter_entries_object(
    entries: Sequence["Entry"], t1: int, t2: int
) -> list["Entry"]:
    """The plain comprehension: the kernels' definition and last resort."""
    return [e for e in entries if t1 <= e.day <= t2]


def filter_entries(
    entries: Sequence["Entry"],
    t1: int,
    t2: int,
    column: array | None = None,
    sorted_column: bool = False,
    bounds: tuple[int, int] | None = None,
) -> list["Entry"]:
    """Return entries with insert day in ``[t1, t2]``, in input order.

    Identical output to :func:`filter_entries_object`; the work happens
    on the day column: a sorted column reduces the filter to two bisects
    and one list slice; for an unsorted one a bounds check retires the
    all-in/all-out cases and a NumPy mask gathers the rest.  ``bounds``
    is the column's ``(min, max)`` when the caller already knows it.
    """
    if not entries:
        return []
    if column is None:
        column = day_column(entries)
        sorted_column = is_nondecreasing(column)
    if sorted_column:
        lo = bisect_left(column, t1)
        hi = bisect_right(column, t2)
        if lo >= hi:
            return []
        if lo == 0 and hi == len(entries):
            return list(entries)
        return list(entries[lo:hi])
    lo_day, hi_day = bounds or (min(column), max(column))
    if lo_day >= t1 and hi_day <= t2:
        return list(entries)
    if hi_day < t1 or lo_day > t2:
        return []
    if _np is not None:
        days = _np.frombuffer(column, dtype=_np.int64)
        matches = _np.flatnonzero((days >= t1) & (days <= t2))
        return [entries[i] for i in matches.tolist()]
    return filter_entries_object(entries, t1, t2)


def filter_bucket(bucket: "Bucket", t1: int, t2: int) -> list["Entry"]:
    """Filter a bucket's live entries by day range via its cached column."""
    column, is_sorted = bucket_day_column(bucket)
    return filter_entries(bucket.entries, t1, t2, column, is_sorted)


def bucket_touches_days(bucket: "Bucket", days: frozenset | set) -> bool:
    """Return ``True`` if any live entry's insert day is in ``days``.

    Equivalent to ``any(e.day in days for e in bucket.entries)``; the
    kernel consults the cached column (with a min/max prune) instead of
    the entry objects.
    """
    entries = bucket.entries
    if not days or not entries:
        return False
    column = bucket._day_column
    if column is None or len(column) != len(entries):
        # Maintenance sweeps (delete_days) hit buckets whose column was
        # never built; materializing one just to throw it away on the
        # following remove_days would cost more than the probe saves.
        return any(e.day in days for e in entries)
    is_sorted = bucket._day_column_sorted
    lo = column[0] if is_sorted else min(column)
    hi = column[-1] if is_sorted else max(column)
    if max(days) < lo or min(days) > hi:
        return False
    return any(day in days for day in column)


# ----------------------------------------------------------------------
# Constituent sweeps (what a scan filters)
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class Sweep:
    """One constituent's live entries in scan order, ready to filter.

    Everything a ``TimedSegmentScan`` needs that only a mutation can
    change: the flat entry list (constituent x directory x append
    order), its day column with the facts :func:`filter_entries` wants
    about it, and the bytes a scan of the constituent transfers.  A
    sweep is never modified after it is built; the constituent that
    owns it drops it whole on its next mutation.

    Attributes:
        entries: Every live entry, in scan order.
        days: ``entries``' insert days, position for position.
        sorted: ``True`` if ``days`` is non-decreasing.
        lo: Smallest insert day (``0`` for an empty sweep, which no
            filter consults).
        hi: Largest insert day (likewise).
        nbytes: The constituent's ``allocated_bytes`` when built.
    """

    entries: tuple["Entry", ...]
    days: array
    sorted: bool
    lo: int
    hi: int
    nbytes: int

    @classmethod
    def of(cls, entries: Sequence["Entry"], nbytes: int) -> "Sweep":
        """Build the sweep of ``entries`` (one pass for the column)."""
        days = day_column(entries)
        if not days:
            return cls((), days, True, 0, 0, nbytes)
        if _np is not None:
            view = _np.frombuffer(days, dtype=_np.int64)
            is_sorted = bool((view[:-1] <= view[1:]).all())
            lo, hi = int(view.min()), int(view.max())
        else:
            is_sorted = is_nondecreasing(days)
            lo, hi = min(days), max(days)
        return cls(tuple(entries), days, is_sorted, lo, hi, nbytes)


# ----------------------------------------------------------------------
# Batch request grouping (probe/scan result assembly)
# ----------------------------------------------------------------------


class RangeFilterCache:
    """Memoizes day-range filters over one immutable entry sequence.

    ``probe_many``/``scan_many`` serve batches where many requests share
    the same ``(t1, t2)`` range (a serving replay uses one sliding
    window for the whole stream): the cache filters once per *unique*
    range and hands every requester the same filtered list.
    Sharing is safe because the result is only ever consumed by
    ``list.extend`` into per-request accumulators.  The memo lives for
    one batch; what outlives the batch is the bucket's column or the
    constituent's :class:`Sweep` it was made from.
    """

    __slots__ = ("entries", "column", "sorted", "bounds", "_cache")

    def __init__(
        self,
        entries: Sequence["Entry"],
        column: array,
        sorted_column: bool,
        bounds: tuple[int, int] | None = None,
    ) -> None:
        self.entries = entries
        self.column = column
        self.sorted = sorted_column
        self.bounds = bounds
        self._cache: dict[tuple[int, int], list["Entry"]] = {}

    @classmethod
    def for_bucket(cls, bucket: "Bucket") -> "RangeFilterCache":
        """Return a cache over a bucket's entries and its cached column."""
        column, is_sorted = bucket_day_column(bucket)
        return cls(bucket.entries, column, is_sorted)

    @classmethod
    def for_sweep(cls, sweep: Sweep) -> "RangeFilterCache":
        """Return a cache over a constituent's sweep."""
        return cls(sweep.entries, sweep.days, sweep.sorted, (sweep.lo, sweep.hi))

    def filter(self, t1: int, t2: int) -> list["Entry"]:
        """Return the memoized filtered entries for ``[t1, t2]``."""
        key = (t1, t2)
        got = self._cache.get(key)
        if got is None:
            got = filter_entries(
                self.entries, t1, t2, self.column, self.sorted, self.bounds
            )
            self._cache[key] = got
        return got

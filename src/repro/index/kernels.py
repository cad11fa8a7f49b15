"""Day-column kernels: how the read path filters entries by day range.

Once the simulated I/O model is warm, real wall-clock time of a read is
dominated by the per-entry timestamp filter (millions of ``e.day``
attribute reads per batch when done object by object).  This module is
where that filter lives — :meth:`~repro.core.wave.WaveIndex.probe_many` /
``scan_many``, which answer every query, single requests included, filter
through :func:`select` and assemble here — and it runs on contiguous
buffers:

* a bucket's derived read state is one immutable :class:`Run` — its
  entries as a tuple, their insert days as a compact ``array('q')``
  **day column**, the column's sortedness and bounds and, from the
  first time an answer cut from it goes over the wire, its encoded
  record run.  :meth:`~repro.index.bucket.Bucket.run` builds it on the
  first read after a mutation, laying the column from the **run
  lengths** the bucket stores beside its entries (:func:`run_lengths`,
  :meth:`Run.laid`) without reading an entry; the bucket's two writers
  drop it whole;
* a whole constituent's scan-order entries are a :class:`Sweep` — a run
  plus the bytes a scan transfers — built once per mutation by
  :meth:`~repro.index.constituent.ConstituentIndex.sweep` (which owns
  its lifetime) from the flat entry list — never from the buckets'
  runs, so a scan leaves no state on the buckets.  Scan order is
  bucket-major, so the sweep also keeps one run per distinct day, made
  by the first scan of that one day (the paper's newest-day scan): such
  a scan is that run, a scan of every day is the sweep.  A constituent
  still in the packed form it was laid from day runs in needs no sweep
  for one day: it keeps that day's run itself
  (:meth:`~repro.index.constituent.ConstituentIndex.select`), and builds
  a sweep only for a range holding two or more of its days;
* day-range filters run on the column instead of the entry objects —
  two ``bisect`` calls and a slice when the column is non-decreasing
  (the common case: entries arrive in day order); when it is not,
  bounds checks (whole run in / out of range), and only then one pass
  over entries and column together;
* the filtered result is a *slice* or a gather of the original
  ``Entry`` objects, so answers equal the plain comprehension element
  for element — and a slice of a run remembers where it was cut
  (:data:`Part`), which is what lets the wire layer send the run's own
  bytes instead of encoding the answer again;
* the in-place delete cuts on the stored run lengths, not on a
  column: a bucket whose pairs hold none of the deleted days is
  skipped, and any other loses each deleted day's span, found by
  offset (:func:`cut_runs`; the oldest day alone, what DEL's daily
  delete drops, is one slice).  No entry is read, and no reader need
  have left a run.  The kept list is the comprehension's, element for
  element.

There is no switch and no second implementation in ``src/``, and the
module imports only the standard library: the object-level batch paths
these kernels replaced live on as test oracles
(``tests/reference/batch.py``), and
``tests/core/test_vectorized_equivalence.py`` holds ``probe_many`` /
``scan_many`` to them — answers, cost summaries, clock, I/O and cache
counters.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice
from operator import le
from typing import TYPE_CHECKING, Any, Sequence

from . import codec

if TYPE_CHECKING:
    from .entry import Entry

# ----------------------------------------------------------------------
# Day columns
# ----------------------------------------------------------------------


def day_column(entries: Sequence["Entry"]) -> array:
    """Return the insert days of ``entries`` as a compact ``array('q')``."""
    return array("q", [e.day for e in entries])


def run_lengths(entries: Sequence["Entry"]) -> tuple[int, ...]:
    """Return the insert days of ``entries`` as run lengths.

    ``(day, count, day, count, ...)``: one pair a run of equal days, in
    order, so no two neighbouring pairs share a day and no count is 0.
    """
    lengths: list[int] = []
    for e in entries:
        if lengths and lengths[-2] == e.day:
            lengths[-1] += 1
        else:
            lengths += (e.day, 1)
    return tuple(lengths)


def cut_runs(
    entries: list["Entry"], lengths: tuple[int, ...], days: set[int]
) -> tuple[list["Entry"], tuple[int, ...]]:
    """Return ``entries`` and their run ``lengths`` less the runs of ``days``.

    Each pair of a deleted day is a span of ``entries`` found by offset,
    and the kept list is the slices between those spans: the
    comprehension's elements, in order, with no entry's day read.  Kept
    pairs of one day that the cut makes neighbours are joined.  Always
    a new list.
    """
    kept: list["Entry"] = []
    kept_lengths: list[int] = []
    start = end = 0
    for day, count in zip(lengths[0::2], lengths[1::2]):
        if day in days:
            kept += entries[start:end]
            start = end + count
        elif kept_lengths and kept_lengths[-2] == day:
            kept_lengths[-1] += count
        else:
            kept_lengths += (day, count)
        end += count
    kept += entries[start:]
    return kept, tuple(kept_lengths)


def is_nondecreasing(column: array) -> bool:
    """Return ``True`` if ``column`` is sorted in non-decreasing order."""
    return all(map(le, column, islice(column, 1, None)))


def _order(days: Sequence[int]) -> tuple[bool, int, int]:
    """Return ``(is_sorted, min, max)`` of a day column (or of its run
    lengths' days, which are sorted exactly when the column is).

    Entries arrive in insert-day order in every maintenance path, so the
    sorted flag is almost always ``True`` — it is *checked*, never
    assumed.  An empty column is sorted and its bounds, which no filter
    consults, are ``0``.
    """
    if not days:
        return True, 0, 0
    if is_nondecreasing(days):
        return True, days[0], days[-1]
    return False, min(days), max(days)


# ----------------------------------------------------------------------
# Runs (what a probe filters) and sweeps (what a scan filters)
# ----------------------------------------------------------------------

_UNENCODED: Any = object()


@dataclass(frozen=True, slots=True, eq=False)
class Run:
    """Entries in read order with everything a filter or a frame wants.

    A bucket's run is its whole derived read state: what only a mutation
    can change, built by the first read after one
    (:meth:`~repro.index.bucket.Bucket.run`) and dropped — never patched
    — by the next.  A run is never modified after it is published, so a
    reader that holds one (a result in flight holds the runs it was cut
    from) needs no lock and can never see a later state of the bucket.

    Attributes:
        entries: The live entries, in append order.
        days: ``entries``' insert days, position for position.
        sorted: ``True`` if ``days`` is non-decreasing.
        lo: Smallest insert day (``0`` for an empty run, which no
            filter consults).
        hi: Largest insert day (likewise).
    """

    entries: tuple["Entry", ...]
    days: array
    sorted: bool
    lo: int
    hi: int
    _records: bytes | None = field(default=_UNENCODED, init=False, repr=False)

    @classmethod
    def of(cls, entries: Sequence["Entry"]) -> "Run":
        """Build the run of ``entries`` (one pass for the column)."""
        days = day_column(entries)
        return cls(tuple(entries), days, *_order(days))

    @classmethod
    def laid(cls, entries: Sequence["Entry"], lengths: Sequence[int]) -> "Run":
        """Build the run of ``entries`` whose day column is ``lengths``.

        ``lengths`` is the column as run lengths (:func:`run_lengths`):
        each day is laid ``count`` times, as
        :meth:`PackedLayout.run <repro.index.bucket.PackedLayout.run>`
        lays a layout's, and the sorted flag and bounds are read off the
        pairs' days.  No entry is read.
        """
        if len(lengths) == 2:
            # One day, the commonest bucket: one repeat.
            day, count = lengths
            return cls(tuple(entries), array("q", (day,)) * count, True, day, day)
        days = lengths[0::2]
        if len(days) == len(entries):
            # Every run is one entry long: the column is the days.
            column = array("q", days)
        else:
            column = array("q")
            for i in range(0, len(lengths), 2):
                # Joined by concatenation, which sizes every array exactly:
                # one grown in place keeps up to a sixteenth and 7 slots spare.
                column = column + array("q", (lengths[i],)) * lengths[i + 1]
        return cls(tuple(entries), column, *_order(days))

    def records(self) -> bytes | None:
        """Return ``entries``' encoded record run, encoding on first call.

        :func:`repro.index.codec.encode_records` output: 32 bytes an
        entry, no header, so ``records()[32 * lo : 32 * hi]`` is the
        record run of ``entries[lo:hi]``; ``None`` when the entries need
        a pool.  The one lazily filled slot of a run: derived from the
        immutable tuple alone, so filling it from any thread, or twice,
        is harmless.
        """
        records = self._records
        if records is _UNENCODED:
            records = codec.encode_records(self.entries)
            object.__setattr__(self, "_records", records)
        return records

    def _scattered(self, t1: int, t2: int) -> tuple[Sequence["Entry"], Part | None]:
        """:func:`select` when the matches are not one slice of the run."""
        return _gather(self, t1, t2), None


@dataclass(frozen=True, slots=True, eq=False)
class Sweep(Run):
    """One constituent's live entries in scan order, ready to filter.

    A :class:`Run` over the flat entry list (constituent x directory x
    append order) plus the bytes a scan of the constituent transfers and
    the days it holds.  Scan order is bucket-major, so a day's entries
    are scattered over it: the sweep also keeps one immutable *day run*
    per distinct day (:meth:`day_run`), made by the first scan that asks
    for that one day.  The constituent that owns the sweep drops it —
    day runs and all — whole on its next mutation.  A constituent in the
    packed form laid from day runs keeps its one-day runs itself and
    builds a sweep only for a scan of two or more of its days.

    Attributes:
        nbytes: The constituent's ``allocated_bytes`` when built.
        distinct: The distinct insert days of ``entries``, ascending.
    """

    nbytes: int
    distinct: tuple[int, ...]
    _day_runs: dict[int, Run] = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of(cls, entries: Sequence["Entry"], nbytes: int) -> "Sweep":
        """Build the sweep of ``entries`` (one pass for the column).

        The bounds are the ends of :attr:`distinct`.  A bucket-major
        sweep of two or more days descends almost at once, which is where
        the sortedness check stops.
        """
        days = day_column(entries)
        distinct = tuple(sorted(set(days)))
        lo, hi = (distinct[0], distinct[-1]) if distinct else (0, 0)
        ordered = len(distinct) < 2 or is_nondecreasing(days)
        return cls(tuple(entries), days, ordered, lo, hi, nbytes, distinct)

    def day_run(self, day: int) -> Run:
        """Return the entries of ``day``, one of :attr:`distinct`, as a run.

        Exactly what filtering the sweep to ``[day, day]`` gathers, in
        sweep order, over a constant day column — gathered once and kept
        beside the sweep, so every later one-day scan is this run (and,
        over the wire, its cached record bytes).  A partition of stored
        data, at most one run per distinct day; not a result cache: a
        range holding two of the sweep's days is filtered on every call.
        Filled like :meth:`Run.records`: from immutable state alone, so a
        lost race gathers twice and harms nothing.

        Raises:
            ValueError: ``day`` is not one of :attr:`distinct`.
        """
        run = self._day_runs.get(day)
        if run is None:
            if day not in self.distinct:
                raise ValueError(f"day {day!r} holds no entry of this sweep")
            entries = tuple(_gather(self, day, day))
            column = array("q", [day]) * len(entries)
            run = self._day_runs[day] = Run(entries, column, True, day, day)
        return run

    def _scattered(self, t1: int, t2: int) -> tuple[Sequence["Entry"], Part | None]:
        distinct = self.distinct
        first = bisect_left(distinct, t1)
        if bisect_right(distinct, t2) - first == 1:
            run = self.day_run(distinct[first])
            return run.entries, (run, 0, len(run.entries))
        return _gather(self, t1, t2), None


#: Where a filtered slice was cut: ``run.entries[lo:hi]``.
Part = tuple[Run, int, int]

# ----------------------------------------------------------------------
# Day-range filtering
# ----------------------------------------------------------------------


def filter_entries_object(
    entries: Sequence["Entry"], t1: int, t2: int
) -> list["Entry"]:
    """The plain comprehension: what every kernel here must equal."""
    return [e for e in entries if t1 <= e.day <= t2]


def select(
    run: Run, t1: int, t2: int
) -> tuple[Sequence["Entry"], Part | None]:
    """Return ``run``'s entries with insert day in ``[t1, t2]``, in order.

    The same elements as :func:`filter_entries_object`; the work happens
    on the day column.  A sorted column reduces the filter to two
    bisects, and for an unsorted one the run's bounds retire the all-in
    and all-out cases: the answer is then a slice of the run's own tuple
    (the tuple itself when everything matches) and comes with the
    :data:`Part` that says where it was cut.  Matches scattered over an
    unsorted column are gathered into a list and have no part; except
    that a :class:`Sweep` holding exactly one of its distinct days in
    range answers with that day's run, whole (:meth:`Sweep.day_run`).
    """
    days = run.days
    if run.sorted:
        lo = bisect_left(days, t1)
        hi = max(lo, bisect_right(days, t2))
    elif run.lo >= t1 and run.hi <= t2:
        lo, hi = 0, len(days)
    elif run.hi < t1 or run.lo > t2:
        lo = hi = 0
    else:
        return run._scattered(t1, t2)
    return run.entries[lo:hi], (run, lo, hi)


def _gather(run: Run, t1: int, t2: int) -> list["Entry"]:
    """Gather ``run``'s entries with insert day in ``[t1, t2]``, in order.

    :func:`filter_entries_object` reading the day column instead of
    ``e.day``: one pass, the fastest standard-library form measured, and
    it takes whatever bounds the comprehension takes, float ones too.
    """
    return [e for e, d in zip(run.entries, run.days) if t1 <= d <= t2]


# ----------------------------------------------------------------------
# Batch request grouping (probe/scan result assembly)
# ----------------------------------------------------------------------


def assemble(
    hits: Sequence[tuple[Sequence["Entry"], Part | None]],
) -> tuple[tuple["Entry", ...], tuple[Part, ...] | None]:
    """Join one answer's non-empty :func:`select` pairs, in order.

    Returns the entries as one tuple — the slice itself when there is
    one part, so a whole-bucket answer from one constituent is the run's
    own tuple; one concatenation otherwise — and the parts they were cut
    from, or ``None`` if any piece was gathered rather than sliced.
    """
    if len(hits) == 1:
        found, part = hits[0]
        return tuple(found), None if part is None else (part,)
    entries: tuple["Entry", ...] = ()
    parts: list = []
    for found, part in hits:
        entries += tuple(found)
        parts.append(part)
    return entries, None if None in parts else tuple(parts)

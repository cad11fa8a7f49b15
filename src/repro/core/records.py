"""Records, day batches, and the record store.

The paper's data model (Section 2): records arrive in daily batches; each
record has one or more values for the search field ``F``; an index entry is
a pointer to the record tagged with the insert day.

:class:`RecordStore` is the source of truth the wave index is built from.
It also answers queries by brute force, which the test suite uses as the
oracle for differential testing of every scheme.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from ..errors import WorkloadError
from ..index.entry import Entry


@dataclass(frozen=True, slots=True)
class Record:
    """One indexed record.

    Attributes:
        record_id: Unique identifier (the target of index pointers).
        day: The day the record arrived.
        values: The record's values for the search field ``F`` — a record
            may have several (e.g. the distinct words of a document).
        nbytes: Raw size of the record, charged when ``BuildIndex`` scans
            the source data.
        info: Associated information copied into each index entry (the
            paper's ``a_i`` — e.g. a sale amount), enabling aggregate scans
            without fetching records.
    """

    record_id: int
    day: int
    values: tuple[Any, ...]
    nbytes: int = 100
    info: int | float | str | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"record {self.record_id} has no search values")
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {self.nbytes}")


@dataclass(frozen=True)
class DayBatch:
    """All records generated on one day.

    Immutable once built: ``records`` accepts any iterable and is stored
    as a tuple, so a day's :class:`PostingRun` can never disagree with
    the batch it was posted from.
    """

    day: int
    records: tuple[Record, ...] = ()
    #: Number of index entries this batch produces.
    entry_count: int = field(init=False)
    #: Raw size of the batch's records.
    data_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        records = tuple(self.records)
        for record in records:
            if record.day != self.day:
                raise WorkloadError(
                    f"record {record.record_id} is for day {record.day}, "
                    f"not batch day {self.day}"
                )
        object.__setattr__(self, "records", records)
        object.__setattr__(
            self, "entry_count", sum(len(r.values) for r in records)
        )
        object.__setattr__(self, "data_bytes", sum(r.nbytes for r in records))

    def postings(self) -> Iterator[tuple[Any, Entry]]:
        """Yield ``(search_value, entry)`` pairs for every record value."""
        for record in self.records:
            for value in record.values:
                yield value, Entry(record.record_id, self.day, record.info)


class PostingRun:
    """One day's postings, grouped by search value, materialised once.

    ``grouped`` maps each search value to its entries in record order
    (keys in first-occurrence order) and is never mutated, so every index
    build over the day merges this run instead of re-posting the records.
    The store reaches a run only weakly; it lives as long as a packed
    index built from it holds it (see :meth:`RecordStore.runs_for`).  A
    cluster's shards do not post their own: each takes its :meth:`cut`
    of the one run the source store posts.

    The brute-force oracles never touch a run: they re-post through
    :meth:`DayBatch.postings`, a path the indexes do not share.
    """

    __slots__ = ("day", "grouped", "__weakref__")

    def __init__(self, batch: DayBatch) -> None:
        day = batch.day
        lists: defaultdict[Any, list[Entry]] = defaultdict(list)
        for record in batch.records:
            entry = Entry(record.record_id, day, record.info)
            for value in record.values:
                lists[value].append(entry)
        self.day = day
        self.grouped: dict[Any, tuple[Entry, ...]] = {
            value: tuple(entries) for value, entries in lists.items()
        }

    def cut(self, owners: Sequence[int], n_parts: int) -> tuple["PostingRun", ...]:
        """Split the run into ``n_parts`` runs; ``owners[i]`` takes the
        ``i``-th key.

        Nothing is posted: a part's keys keep this run's order and refer
        to its entry tuples, and no part refers to the run itself.
        """
        parts: list[dict[Any, tuple[Entry, ...]]] = [{} for _ in range(n_parts)]
        for (value, entries), owner in zip(self.grouped.items(), owners):
            parts[owner][value] = entries
        cuts = []
        for part in parts:
            run = PostingRun.__new__(PostingRun)
            run.day = self.day
            run.grouped = part
            cuts.append(run)
        return tuple(cuts)


class RecordStore:
    """Holds the daily batches a wave index is maintained over.

    The store intentionally retains *all* days ever added (the wave index,
    not the store, implements expiry): schemes like ``REINDEX`` re-read old
    days when rebuilding, and tests compare index contents against the
    store's ground truth.
    """

    def __init__(self) -> None:
        self._batches: dict[int, DayBatch] = {}
        self._runs: weakref.WeakValueDictionary[int, PostingRun] = (
            weakref.WeakValueDictionary()
        )
        #: The runs posted inside :meth:`holding_runs`, else ``None``.
        self._held: list[PostingRun] | None = None

    def add_batch(self, batch: DayBatch) -> None:
        """Register a day's batch; replacing a day is a usage error."""
        if batch.day in self._batches:
            raise WorkloadError(f"day {batch.day} already has a batch")
        self._batches[batch.day] = batch

    def add_records(self, day: int, records: Iterable[Record]) -> DayBatch:
        """Convenience: wrap ``records`` in a batch for ``day`` and add it."""
        batch = DayBatch(day=day, records=records)
        self.add_batch(batch)
        return batch

    def batch(self, day: int) -> DayBatch:
        """Return the batch for ``day``.

        Raises:
            WorkloadError: If no batch was added for that day.
        """
        try:
            return self._batches[day]
        except KeyError:
            raise WorkloadError(f"no batch for day {day}") from None

    def has_day(self, day: int) -> bool:
        """Return ``True`` if a batch exists for ``day``."""
        return day in self._batches

    @property
    def days(self) -> list[int]:
        """Return all stored days in ascending order."""
        return sorted(self._batches)

    def runs_for(self, days: Iterable[int]) -> tuple[PostingRun, ...]:
        """Return the posting runs of ``days``, ascending, each day once.

        A day is posted only if no run of it is alive.  The store holds
        runs weakly: whoever keeps the returned tuple keeps them alive (a
        packed index does, until it is mutated or dropped), so a rebuild
        over days an existing packed index already covers posts nothing.
        """
        runs = []
        for day in sorted(set(days)):
            run = self._runs.get(day)
            if run is None:
                run = self._runs[day] = self._post(day)
                if self._held is not None:
                    self._held.append(run)
            runs.append(run)
        return tuple(runs)

    def _post(self, day: int) -> PostingRun:
        """Make ``day``'s run; called only when none is alive."""
        return PostingRun(self.batch(day))

    @contextmanager
    def holding_runs(self) -> Iterator[None]:
        """Keep every run posted inside the block alive until it ends.

        For a caller about to run several builds that nothing ties
        together — a cluster turning a day on ``k`` shards, each updating
        in place and so keeping no run — so that the day is posted once.
        """
        outer = self._held
        self._held = [] if outer is None else outer
        try:
            yield
        finally:
            self._held = outer

    def grouped_for(self, days: Iterable[int]) -> dict[Any, list[Entry]]:
        """Return postings for ``days`` grouped by search value.

        Entries are emitted in ascending day order within each value, which
        is the order a day-at-a-time build would produce.  The lists are
        the caller's own; the entries are shared with the days' runs.
        For the callers that write what they get — incremental adds,
        smart copies, the advisor's calibration: a build from the store
        (:func:`~repro.index.builder.build_index_from_store`) merges the
        runs themselves and never comes here.
        """
        grouped: dict[Any, list[Entry]] = {}
        for run in self.runs_for(days):
            for value, entries in run.grouped.items():
                merged = grouped.get(value)
                if merged is None:
                    grouped[value] = list(entries)
                else:
                    merged.extend(entries)
        return grouped

    def data_bytes_for(self, days: Iterable[int]) -> int:
        """Return total raw bytes of the batches for ``days``."""
        return sum(self.batch(day).data_bytes for day in set(days))

    # ------------------------------------------------------------------
    # Brute-force oracles (used by differential tests)
    # ------------------------------------------------------------------

    def brute_probe(self, value: Any, t1: int, t2: int) -> list[Entry]:
        """Return entries for ``value`` with insert day in ``[t1, t2]``."""
        hits = []
        for day in self.days:
            if t1 <= day <= t2:
                for v, entry in self.batch(day).postings():
                    if v == value:
                        hits.append(entry)
        return hits

    def brute_scan(self, t1: int, t2: int) -> list[Entry]:
        """Return every entry with insert day in ``[t1, t2]``."""
        hits = []
        for day in self.days:
            if t1 <= day <= t2:
                hits.extend(e for _, e in self.batch(day).postings())
        return hits

"""Buckets: per-search-value posting lists with disk placement.

A bucket holds the entries for one search value (Figure 1 of the paper).
Placement comes in two flavours:

* **Packed** — the bucket occupies a slice of the index's single shared
  extent, sized exactly to its entries with no room for growth.  This is
  what ``BuildIndex`` produces; the whole index scans with one seek.
* **Contiguous (private)** — the bucket owns a private extent managed by the
  CONTIGUOUS policy, with free tail space for appends.  This is what
  incremental updates produce; a full-index scan pays one seek per bucket.

A packed bucket that receives an append is *evicted* into a private extent
first (the old slice is dead space until the shared extent is rewritten) —
precisely why the paper says in-place/simple-shadow updates leave an index
unpacked.

A :class:`Bucket` keeps its entries' insert days as run lengths, ``(day,
count)`` pairs in append order, written by the same statements that
write its entries.  Entries arrive a day at a time, so a bucket holds
about one pair a day of the window however many entries it holds: the
first reader after a write lays its day column from the pairs (as a
layout lays its views'), and the paper's ``DeleteFromIndex`` finds the
expired day's entries by offset — neither reads an entry.

``BuildIndex`` lays a packed index down once and, under the paper's
recommended configurations, nothing touches it until it is dropped.  Such
an index is stored as one :class:`PackedLayout` — each bucket's offset
range in scan order, over the groupings the entries came in — and read
through :class:`PackedBucket` views; :class:`Bucket` objects are laid
out only when the index is first mutated.  A layout merged from day
runs (every build from a record store) keeps the runs themselves, no
copy of their entries: a view joins its value's entries of each day and
lays their day column in the same pass, a one-day scan is that day's
run laid out in slot order, and the whole index in scan order is laid
out only for a reader that asks for all of it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import Any, Mapping, Sequence

from ..storage.extent import Extent
from . import kernels
from .entry import Entry


@dataclass(slots=True)
class Bucket:
    """Postings for one search value plus where they live on disk.

    Its day column is stored beside its entries, as run lengths: the
    entries' insert days, in append order, as ``(day, count, day,
    count, ...)`` — one pair a run of equal days, no two neighbours of
    one day, no count of 0.  The writers of ``entries`` write them in
    the same statement: a one-day append adds one pair or lengthens the
    last one and reads no entry, a multi-day or unsorted one encodes its
    own entries, and the delete cuts whole pairs.  So the reader that
    builds the run lays the column from the pairs and reads no entry's
    day, and the delete finds which days a bucket holds, and where, by
    offset.

    Attributes:
        value: The search value this bucket serves.
        entries: Live entries, in append order.
        extent: Private extent (contiguous mode) or the index's shared
            extent (packed mode).
        shared: ``True`` while the bucket lives inside a shared packed
            extent.
        capacity_entries: How many entries the placement can hold.  For
            packed buckets this equals ``len(entries)`` at build time.
        offset_in_extent: Byte offset of the bucket inside a shared extent;
            0 for private extents.
    """

    value: Any
    entries: list[Entry] = field(default_factory=list)
    extent: Extent | None = None
    shared: bool = False
    capacity_entries: int = 0
    offset_in_extent: int = 0
    #: Stored: ``entries``' day column as run lengths, read through
    #: :meth:`lengths`.  Empty for a bucket made with entries and no
    #: lengths, which the length rule encodes on its first read.
    _lengths: tuple[int, ...] = field(default=(), repr=False, compare=False)
    #: Derived read state: the :class:`~repro.index.kernels.Run` of
    #: ``entries``, built by :meth:`run` and dropped by the two writers
    #: of ``entries``, :meth:`append_entries` and :meth:`replace_entries`.
    _run: kernels.Run | None = field(default=None, repr=False, compare=False)

    @property
    def live_count(self) -> int:
        """Return the number of live entries."""
        return len(self.entries)

    def used_bytes(self, entry_size: int) -> int:
        """Return bytes occupied by live entries."""
        return self.live_count * entry_size

    def capacity_bytes(self, entry_size: int) -> int:
        """Return bytes reserved for this bucket on disk."""
        return self.capacity_entries * entry_size

    def free_entries(self) -> int:
        """Return how many more entries fit without reallocation."""
        return self.capacity_entries - self.live_count

    def fits(self, n_more: int) -> bool:
        """Return ``True`` if ``n_more`` entries fit in the current placement."""
        return not self.shared and n_more <= self.capacity_entries - len(self.entries)

    def lengths(self) -> tuple[int, ...]:
        """Return the day column as run lengths, ``(day, count, ...)``.

        The stored pairs, unless entries were changed behind the
        writers' backs: pairs that do not count ``len(entries)`` are
        encoded again from the entries before anyone reads them (the
        length rule of :meth:`run`).
        """
        lengths = self._lengths
        if sum(lengths[1::2]) != len(self.entries):
            lengths = self._lengths = kernels.run_lengths(self.entries)
        return lengths

    def run(self) -> kernels.Run:
        """Return the bucket's run, building it if none is current.

        The first read after a mutation builds it — one ``tuple(entries)``
        and the day column laid from :meth:`lengths`, with no entry's
        day read — and publishes it with one assignment; later reads get
        the same immutable object until a writer drops it.  Entries
        changed behind the writers' backs are caught by length: a stale
        run is rebuilt, never served.
        """
        run = self._run
        if run is None or len(run.days) != len(self.entries):
            run = self._run = kernels.Run.laid(self.entries, self.lengths())
        return run

    def append_entries(self, entries: Sequence[Entry], day: int | None = None) -> None:
        """Append ``entries``, dropping the run.

        ``day``, when given, is the insert day of every one of
        ``entries``: the pairs grow by one pair, or the last one
        lengthens, without an entry being read.  Without it the appended
        entries are encoded.
        """
        self._run = None
        self.entries.extend(entries)
        if not entries:
            return
        more = kernels.run_lengths(entries) if day is None else (day, len(entries))
        lengths = self._lengths
        if lengths and lengths[-2] == more[0]:
            # The last run and the first appended one are of one day.
            self._lengths = (*lengths[:-1], lengths[-1] + more[1], *more[2:])
        else:
            self._lengths = lengths + more

    def replace_entries(
        self, entries: list[Entry], lengths: tuple[int, ...] | None = None
    ) -> None:
        """Swap in a new entry list and its ``lengths``, dropping the run.

        Without ``lengths`` the new entries are encoded.
        """
        self._run = None
        self.entries = entries
        self._lengths = kernels.run_lengths(entries) if lengths is None else lengths


@dataclass(frozen=True, slots=True, eq=False)
class PackedLayout:
    """The stored form of a packed index: bucket offsets over its groupings.

    Immutable, so a byte-for-byte copy of a packed index shares it.  It
    holds no entry of its own: a bucket is its value's entries in every
    grouping, grouping after grouping, joined when a reader first asks
    for it (:meth:`entries`, :meth:`run`); the whole index in scan order
    is laid out only if a reader asks for that (:meth:`flat`).

    Attributes:
        values: The search values in directory order (sorted when
            orderable, first occurrence otherwise), one slot each.
        starts: ``len(values) + 1`` entry offsets: slot ``i`` is entries
            ``starts[i]`` to ``starts[i + 1]`` of the index in scan order,
            so ``starts[-1]`` is how many entries the index has.
        slots: Search value -> slot.
        entry_size: Bytes an entry takes on disk: slot ``i`` starts
            ``starts[i] * entry_size`` bytes into the index's extent.
        groupings: Search value -> entries, which the buckets are merged
            from.  Laid from day runs (:attr:`days` set), the runs' own
            dicts, which the index built from them holds anyway;
            otherwise one grouping, frozen into tuples when the layout
            was made, so no caller's list is read after that.
        days: The insert day of each grouping, ascending, when each is
            one day's posting run; empty otherwise.  Then
            ``groupings[d].get(value, ())`` is ``value``'s entries of day
            ``days[d]``.
    """

    values: tuple[Any, ...]
    starts: tuple[int, ...]
    slots: dict[Any, int]
    entry_size: int
    groupings: tuple[Mapping[Any, Sequence[Entry]], ...]
    days: tuple[int, ...] = ()
    _flat: tuple[Entry, ...] | None = field(default=None, init=False, repr=False)
    #: ``array('q', (day,))`` for each of :attr:`days`: what a day column
    #: repeats, made once a layout instead of once a piece.
    _units: tuple[array, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        units = tuple(array("q", (day,)) for day in self.days)
        object.__setattr__(self, "_units", units)

    @classmethod
    def of(
        cls,
        groupings: Sequence[Mapping[Any, Sequence[Entry]]],
        entry_size: int,
        days: Sequence[int] = (),
    ) -> "PackedLayout":
        """Lay out offsets for ``groupings`` (search value -> entries).

        A value's bucket is its entries in every grouping, grouping after
        grouping; only the bucket sizes are counted here.  ``days``, when
        given, is each grouping's insert day — each is one day's posting
        run, immutable, in ascending day order — and the layout keeps the
        groupings as they are.  Without ``days`` there is at most one
        grouping, and the layout keeps a copy of it with every list
        frozen into a tuple, so the caller may go on writing its own.
        ``entry_size`` is what the layout's views turn entry offsets into
        byte offsets with.
        """
        values = list(dict.fromkeys(chain.from_iterable(groupings)))
        try:
            values = sorted(values)
        except TypeError:
            pass  # unorderable search values keep their arrival order
        if not days:
            (grouping,) = groupings or ({},)
            groupings = [{value: tuple(got) for value, got in grouping.items()}]
        lengths = [map(len, map(g.get, values, repeat(()))) for g in groupings]
        sizes = map(sum, zip(*lengths)) if len(lengths) > 1 else lengths[0]
        return cls(
            tuple(values),
            (0, *accumulate(sizes)),
            {value: slot for slot, value in enumerate(values)},
            entry_size,
            tuple(groupings),
            tuple(days),
        )

    def entries(self, value: Any) -> tuple[Entry, ...]:
        """Return ``value``'s bucket: its entries in every grouping."""
        return _joined([g[value] for g in self.groupings if value in g])

    def run(self, value: Any) -> kernels.Run:
        """Return the run of ``value``'s bucket on a layout with days.

        One pass over the groupings joins the value's entries and lays
        its day column — each day repeated as many times as the value
        has entries that day, ascending, so sorted by construction — and
        reads no entry.  The column is joined by concatenation, which
        sizes every array exactly (one grown in place keeps up to a
        sixteenth and 7 slots spare), as :meth:`kernels.Run.laid
        <repro.index.kernels.Run.laid>` joins a bucket's.
        """
        pieces = []
        column: array | None = None
        for unit, grouping in zip(self._units, self.groupings):
            piece = grouping.get(value)
            if piece:
                pieces.append(piece)
                days = unit * len(piece)
                column = days if column is None else column + days
        return kernels.Run(_joined(pieces), column, True, column[0], column[-1])

    def lengths(self, value: Any) -> tuple[int, ...]:
        """Return the day column of ``value``'s bucket on a layout with
        days, as :meth:`Bucket.lengths` keeps it: one pair a grouping
        that holds the value, from the groupings' lengths alone."""
        lengths: list[int] = []
        for day, grouping in zip(self.days, self.groupings):
            piece = grouping.get(value)
            if piece:
                lengths += (day, len(piece))
        return tuple(lengths)

    def day_run(self, day: int) -> kernels.Run:
        """Return the entries of ``day``, one of :attr:`days`, as a run.

        The day's grouping laid out in slot order — exactly what
        filtering the index in scan order to ``[day, day]`` gathers, in
        that order — over a constant day column.
        """
        d = self.days.index(day)
        grouping = self.groupings[d]
        entries = tuple(
            chain.from_iterable(map(grouping.get, self.values, repeat(())))
        )
        return kernels.Run(entries, self._units[d] * len(entries), True, day, day)

    def flat(self) -> tuple[Entry, ...]:
        """Return every entry, bucket after bucket: the index in scan order.

        Laid out on the first call and kept, the one lazily filled slot
        of a layout: derived from the immutable groupings alone, so
        filling it twice is harmless.  Only a reader of the whole index
        asks for it (``ConstituentIndex.all_entries`` and a scan that
        spans two or more of the index's days).
        """
        flat = self._flat
        if flat is None:
            values = self.values
            columns = [map(g.get, values, repeat(())) for g in self.groupings]
            flat = tuple(chain.from_iterable(chain.from_iterable(zip(*columns))))
            object.__setattr__(self, "_flat", flat)
        return flat


def _joined(pieces: list[Sequence[Entry]]) -> tuple[Entry, ...]:
    """Return ``pieces`` as one tuple; a lone tuple piece is itself.

    Copied into one list and that into the tuple: two copies, each a
    C loop, where a tuple made from a ``chain`` pays an iterator step
    an entry (measured 1.5 to 3 times slower at 50 to 2 000 entries).
    """
    if len(pieces) == 1:
        return tuple(pieces[0])
    joined: list[Entry] = []
    for piece in pieces:
        joined += piece
    return tuple(joined)


class PackedBucket:
    """Read view of one value's slice of a :class:`PackedLayout`.

    Answers what a shared :class:`Bucket` answers to a reader — and has
    no writers, so its run, once built, is never dropped.  On a layout
    laid from day runs the view is made with its run, in the one pass
    over the groupings that joins its entries; otherwise the run is
    built by the first :meth:`run`.  It holds its layout, which its byte
    offset is read off, so it keeps four slots: 64 bytes a view, where
    holding the slot and the byte offset as well would take 80
    (DESIGN.md, "Packed form").
    """

    __slots__ = ("value", "entries", "_layout", "_run")

    shared = True

    def __init__(self, layout: PackedLayout, slot: int) -> None:
        value = self.value = layout.values[slot]
        self._layout = layout
        run: kernels.Run | None = None
        if layout.days:
            run = layout.run(value)
            self.entries = run.entries
        else:
            self.entries = layout.entries(value)
        self._run = run

    @property
    def offset_in_extent(self) -> int:
        """Return the slice's byte offset in the index's shared extent."""
        layout = self._layout
        return layout.starts[layout.slots[self.value]] * layout.entry_size

    @property
    def live_count(self) -> int:
        """Return the number of entries."""
        return len(self.entries)

    @property
    def capacity_entries(self) -> int:
        """Return how many entries the slice holds: exactly its own."""
        return len(self.entries)

    def run(self) -> kernels.Run:
        """Return the slice's run, building it on the first call."""
        run = self._run
        if run is None:
            run = self._run = kernels.Run.of(self.entries)
        return run

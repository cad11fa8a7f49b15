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

``BuildIndex`` lays a packed index down once and, under the paper's
recommended configurations, nothing touches it until it is dropped.  Such
an index is stored as one :class:`PackedLayout` — every entry in scan
order in one tuple, a bucket an offset range of it — and read through
:class:`PackedBucket` views; :class:`Bucket` objects are laid out only
when the index is first mutated.  A layout merged from day runs (every
build from a record store) also keeps the runs' days and groupings, so
a view's first read cuts its day column from how many entries its value
has each day instead of reading the entries again.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import Any, Iterable, Mapping, Sequence

from ..storage.extent import Extent
from . import kernels
from .entry import Entry


@dataclass
class Bucket:
    """Postings for one search value plus where they live on disk.

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
        return not self.shared and n_more <= self.free_entries()

    def run(self) -> kernels.Run:
        """Return the bucket's run, building it if none is current.

        The first read after a mutation builds it (one pass for the day
        column, one ``tuple(entries)``) and publishes it with one
        assignment; later reads get the same immutable object until a
        writer drops it.  Entries changed behind the writers' backs are
        caught by length: a stale run is rebuilt, never served.
        """
        run = self._run
        if run is None or len(run.days) != len(self.entries):
            run = self._run = kernels.Run.of(self.entries)
        return run

    def append_entries(self, entries: Iterable[Entry]) -> None:
        """Append ``entries``, dropping the run."""
        self._run = None
        self.entries.extend(entries)

    def replace_entries(self, entries: list[Entry]) -> None:
        """Swap in a new entry list, dropping the run."""
        self._run = None
        self.entries = entries


@dataclass(frozen=True, slots=True, eq=False)
class PackedLayout:
    """The stored form of a packed index: one flat run plus bucket offsets.

    Immutable, so a byte-for-byte copy of a packed index shares it.

    Attributes:
        values: The search values in directory order (sorted when
            orderable, first occurrence otherwise), one slot each.
        starts: ``len(values) + 1`` entry offsets: slot ``i`` holds
            ``flat[starts[i]:starts[i + 1]]``.
        flat: Every entry, bucket after bucket — the index in scan order.
        slots: Search value -> slot.
        entry_size: Bytes an entry takes on disk: slot ``i`` starts
            ``starts[i] * entry_size`` bytes into the index's extent.
        days: The insert day of each grouping the layout was merged
            from, ascending, when each was one day's posting run;
            empty otherwise.
        groupings: Beside :attr:`days`, those runs' groupings (value ->
            entries), which the index built from the runs holds anyway:
            ``len(groupings[d].get(value, ()))`` is how many of
            ``value``'s entries are of day ``days[d]``.
    """

    values: tuple[Any, ...]
    starts: tuple[int, ...]
    flat: tuple[Entry, ...]
    slots: dict[Any, int]
    entry_size: int
    days: tuple[int, ...] = ()
    groupings: tuple[Mapping[Any, Sequence[Entry]], ...] = ()

    @classmethod
    def of(
        cls,
        groupings: Sequence[Mapping[Any, Sequence[Entry]]],
        entry_size: int,
        days: Sequence[int] = (),
    ) -> "PackedLayout":
        """Merge ``groupings`` (search value -> entries) column-wise.

        A value's bucket is its entries in every grouping, grouping after
        grouping.  ``days``, when given, is each grouping's insert day —
        each is one day's posting run, in ascending day order — and the
        layout keeps them and the groupings, from whose lengths
        :meth:`run` builds a value's run without reading an entry.
        Without ``days`` the groupings are read, never kept.
        ``entry_size`` is what the layout's views turn entry offsets into
        byte offsets with.
        """
        values = list(dict.fromkeys(chain.from_iterable(groupings)))
        try:
            values = sorted(values)
        except TypeError:
            pass  # unorderable search values keep their arrival order
        columns = [list(map(g.get, values, repeat(()))) for g in groupings]
        # Slot after slot, each slot grouping after grouping.
        sizes = map(sum, zip(*[map(len, column) for column in columns]))
        pieces = chain.from_iterable(zip(*columns))
        return cls(
            tuple(values),
            (0, *accumulate(sizes)),
            tuple(chain.from_iterable(pieces)),
            {value: slot for slot, value in enumerate(values)},
            entry_size,
            tuple(days),
            tuple(groupings) if days else (),
        )

    def run(self, value: Any, entries: tuple[Entry, ...]) -> kernels.Run:
        """Return the run of ``entries``, which are ``value``'s bucket.

        From :attr:`days` and :attr:`groupings` when the layout has them:
        the column is each day repeated as many times as the value has
        entries that day, laid into one exactly sized array, ascending,
        so sorted by construction.  Otherwise one pass over the entries.
        """
        days = self.days
        if not days:
            return kernels.Run.of(entries)
        column = array("q", (0,)) * len(entries)
        lo = 0
        for day, grouping in zip(days, self.groupings):
            n = len(grouping.get(value, ()))
            if n:
                column[lo : lo + n] = array("q", (day,)) * n
                lo += n
        return kernels.Run(entries, column, True, column[0], column[-1])


class PackedBucket:
    """Read view of one value's slice of a :class:`PackedLayout`.

    Answers what a shared :class:`Bucket` answers to a reader — and has
    no writers, so its run, once built, is never dropped.  It holds its
    layout, which :meth:`PackedLayout.run` builds the run from by value
    and which its byte offset is read off, so it keeps four slots: 64
    bytes a view, where holding the slot and the byte offset as well
    would take 80 (DESIGN.md, "Packed form").
    """

    __slots__ = ("value", "entries", "_layout", "_run")

    shared = True

    def __init__(self, layout: PackedLayout, slot: int) -> None:
        self.value = layout.values[slot]
        self.entries = layout.flat[layout.starts[slot] : layout.starts[slot + 1]]
        self._layout = layout
        self._run: kernels.Run | None = None

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
            run = self._run = self._layout.run(self.value, self.entries)
        return run

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
when the index is first mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
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

    def select(self, t1: int, t2: int) -> list[Entry]:
        """Return entries with insert day in the closed range ``[t1, t2]``."""
        return kernels.filter_bucket(self, t1, t2)


@dataclass(frozen=True, slots=True, eq=False)
class PackedLayout:
    """The stored form of a packed index: one flat run plus bucket offsets.

    Immutable, so a byte-for-byte copy of a packed index shares it.

    Attributes:
        values: The search values in directory order (sorted when
            orderable), one slot each.
        starts: ``len(values) + 1`` entry offsets: slot ``i`` holds
            ``flat[starts[i]:starts[i + 1]]``.
        flat: Every entry, bucket after bucket — the index in scan order.
        slots: Search value -> slot.
    """

    values: tuple[Any, ...]
    starts: tuple[int, ...]
    flat: tuple[Entry, ...]
    slots: dict[Any, int]

    @classmethod
    def of(cls, grouped: Mapping[Any, Sequence[Entry]]) -> "PackedLayout":
        """Lay ``grouped`` (search value -> entries) out; its lists are copied."""
        values = list(grouped)
        try:
            values.sort()
        except TypeError:
            pass  # unorderable search values keep their arrival order
        lists = [grouped[value] for value in values]
        return cls(
            tuple(values),
            (0, *accumulate(map(len, lists))),
            tuple(chain.from_iterable(lists)),
            {value: slot for slot, value in enumerate(values)},
        )


class PackedBucket:
    """Read view of one value's slice of a :class:`PackedLayout`.

    Answers what a shared :class:`Bucket` answers to a reader — and has
    no writers, so its run, once built, is never dropped.
    """

    __slots__ = ("value", "entries", "offset_in_extent", "_run")

    shared = True

    def __init__(
        self, value: Any, entries: tuple[Entry, ...], offset_in_extent: int
    ) -> None:
        self.value = value
        self.entries = entries
        self.offset_in_extent = offset_in_extent
        self._run: kernels.Run | None = None

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

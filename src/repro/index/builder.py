"""Packed index construction (``BuildIndex``).

Section 2.2: "a packed index is achieved by scanning the Days records and
counting the number of entries needed in each bucket.  Then contiguous
buckets of the appropriate size are allocated on disk."

Cost model: one sequential read of the source data plus one sequential write
of the finished index (both single-seek streams).  Space: exactly
``entry_count * entry_size`` — this is the paper's ``S`` per day, versus the
CONTIGUOUS ``S'`` an incremental build would leave behind.

What is laid down is one :class:`~repro.index.bucket.PackedLayout` —
each bucket's offset range in scan order, over the groupings its entries
came in — and the index keeps exactly that until something mutates it.
:meth:`PackedLayout.of <repro.index.bucket.PackedLayout.of>` is the one
packed-layout computation in the package: it counts the groupings it is
given column-wise and copies no entry.  :func:`build_index_from_store`
hands it one grouping per posting run — the days' runs, never a merged
copy — with the runs' days, so the layout keeps the runs and nothing
else: a bucket's first read joins its entries and their day column in
one pass over them, and a one-day scan lays out that day's run alone.
:func:`_pack` for every other build and smart copy on one device, and
the cross-device copies, hand it one grouping, which it freezes; a
byte-for-byte copy shares the layout of the index it copies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..storage.disk import SimulatedDisk
from .bucket import PackedLayout
from .config import IndexConfig
from .constituent import ConstituentIndex
from .entry import Entry

if TYPE_CHECKING:
    from ..core.records import RecordStore


def build_packed_index(
    disk: SimulatedDisk,
    config: IndexConfig,
    grouped: Mapping[Any, list[Entry]],
    days: Iterable[int],
    *,
    name: str = "I",
    source_bytes: int | None = None,
) -> ConstituentIndex:
    """Build a packed index over ``grouped`` postings covering ``days``.

    Args:
        grouped: Search value -> entries (e.g. from
            :func:`repro.index.entry.entries_by_value`); copied, never kept.
        days: The time-set the new index covers.
        source_bytes: Size of the raw records scanned to produce the
            postings; defaults to the index payload size.

    Returns:
        A packed :class:`ConstituentIndex` occupying one contiguous extent.
    """
    kept = {value: entries for value, entries in grouped.items() if entries}
    return _pack(disk, config, [kept], days, name=name, source_bytes=source_bytes)


def build_index_from_store(
    disk: SimulatedDisk,
    config: IndexConfig,
    store: RecordStore,
    days: Iterable[int],
    *,
    name: str = "I",
) -> ConstituentIndex:
    """``BuildIndex`` over the records ``store`` holds for ``days``.

    The one way to build from a record store: the days' posting runs are
    merged straight into the layout, one grouping each — no merged copy
    of them is made — and handed to the new index, which holds them
    until it is first mutated or dropped — so the next build over any of
    these days (REINDEX's daily rebuild, a repair, a retune) finds them
    alive instead of re-posting the records.  The layout keeps the runs'
    days and groupings and no copy of their entries, so a bucket's first
    read knows its day column without reading an entry.  The device is
    charged for reading the source records all the same.
    """
    days = sorted(set(days))
    runs = store.runs_for(days)
    return _pack(
        disk,
        config,
        [run.grouped for run in runs],
        days,
        name=name,
        source_bytes=store.data_bytes_for(days),
        runs=runs,
    )


def _pack(
    disk: SimulatedDisk,
    config: IndexConfig,
    groupings: Sequence[Mapping[Any, Sequence[Entry]]],
    days: Iterable[int],
    *,
    name: str,
    source_bytes: int | None,
    runs: tuple = (),
) -> ConstituentIndex:
    """Lay ``groupings`` out as one packed index.

    ``runs``, when given, are the posting runs whose groupings
    ``groupings`` are, in order: the new index holds them, and its
    layout keeps their days and groupings.  Otherwise nothing of the
    groupings is kept.
    """
    index = ConstituentIndex(disk, config, name=name)
    layout = PackedLayout.of(
        groupings, config.entry_size_bytes, [run.day for run in runs]
    )
    total_bytes = layout.starts[-1] * config.entry_size_bytes

    # Pass 1: scan the source records to count bucket sizes.
    disk.stream_read(source_bytes if source_bytes is not None else total_bytes)

    # Pass 2: allocate one contiguous extent and write all buckets into it.
    extent = disk.allocate(total_bytes)
    disk.write(extent, total_bytes)

    index._adopt_packed(extent, layout, days, runs)
    return index


def build_empty_index(
    disk: SimulatedDisk, config: IndexConfig, *, name: str = "I"
) -> ConstituentIndex:
    """Return an empty unpacked index (``BuildIndex`` of the empty set)."""
    return ConstituentIndex.create_empty(disk, config, name=name)

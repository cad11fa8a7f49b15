"""The eager packed build: one ``Bucket`` object per search value.

How ``src/`` laid every packed index out before a packed constituent
became one flat :class:`~repro.index.bucket.PackedLayout`: ``_pack`` and
the packed branch of ``clone_index``, kept word for word, each looping
over the values with its own running offset.  They install the buckets
straight into the index's directory — the state ``_unpack`` must
reproduce and every read of the flat form must be indistinguishable
from.  :func:`eager_world` swaps both into the package, so a whole
scheme can be run "the old way" beside an unpatched twin.  ``_pack``
now takes the groupings it merges (one per posting run on a build from
a store); :func:`pack_eager` first merges them the way
``RecordStore.grouped_for`` did when the build called it.

:func:`layout_of_grouped` over :func:`merge_groupings` is the layout
computation as it was before the build merged the runs column-wise —
the oracle a layout built from runs is held to, field for field.
:class:`EagerLayout` is the column-wise merge as it was before a layout
stopped copying entries: every entry laid into one bucket-major ``flat``
tuple at build time, a bucket a slice of it, a one-day scan gathered
from it.
"""

from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from unittest import mock

from repro.core import executor
from repro.index import builder, updates
from repro.index.bucket import Bucket
from repro.index.constituent import ConstituentIndex


_clone_index = updates.clone_index


def _ordered_values(grouped):
    values = list(grouped)
    try:
        return sorted(values)
    except TypeError:
        return values


def _adopt_eager(index, extent, buckets, days, runs=()):
    index._invalidate_derived()
    index._runs = runs
    index._shared_extent = extent
    index.packed = True
    count = 0
    for bucket in buckets:
        index.directory.put(bucket.value, bucket)
        count += 1
    index._shared_live_buckets = count
    index.time_set = set(days)


def merge_groupings(groupings):
    """``RecordStore.grouped_for`` as it was: the groupings merged into one
    dict of lists, value by value, grouping after grouping."""
    grouped = {}
    for grouping in groupings:
        for value, entries in grouping.items():
            merged = grouped.get(value)
            if merged is None:
                grouped[value] = list(entries)
            else:
                merged.extend(entries)
    return grouped


def layout_of_grouped(grouped):
    """``PackedLayout.of`` as it was, on one merged dict — with its
    directory order taken from :func:`_ordered_values`, which sorts a
    copy, where it sorted in place.  Returns the four fields it made:
    ``(values, starts, flat, slots)``."""
    values = _ordered_values(grouped)
    lists = [grouped[value] for value in values]
    return (
        tuple(values),
        (0, *accumulate(map(len, lists))),
        tuple(chain.from_iterable(lists)),
        {value: slot for slot, value in enumerate(values)},
    )


@dataclass(frozen=True)
class EagerLayout:
    """``PackedLayout`` as it was: ``flat`` holds every entry, eagerly."""

    values: tuple
    starts: tuple
    flat: tuple
    slots: dict

    @classmethod
    def of(cls, groupings):
        """``PackedLayout.of`` as it was, word for word but the fields
        the oracle does not need (entry size, days, groupings)."""
        values = list(dict.fromkeys(chain.from_iterable(groupings)))
        try:
            values = sorted(values)
        except TypeError:
            pass
        columns = [list(map(g.get, values, repeat(()))) for g in groupings]
        sizes = map(sum, zip(*[map(len, column) for column in columns]))
        pieces = chain.from_iterable(zip(*columns))
        return cls(
            tuple(values),
            (0, *accumulate(sizes)),
            tuple(chain.from_iterable(pieces)),
            {value: slot for slot, value in enumerate(values)},
        )

    def entries(self, slot):
        """A view's entries as they were: a slice of ``flat``."""
        return self.flat[self.starts[slot] : self.starts[slot + 1]]

    def day_run(self, day):
        """``Sweep.day_run`` over ``flat``: the day's entries gathered in
        scan order, over a constant day column."""
        entries = tuple(e for e in self.flat if e.day == day)
        return entries, array("q", [day] * len(entries))


def pack_eager(disk, config, groupings, days, *, name, source_bytes, runs=()):
    """``builder._pack`` as it was: a ``Bucket`` and a list per value, over
    the groupings merged as ``grouped_for`` merged them."""
    grouped = merge_groupings(groupings)
    index = ConstituentIndex(disk, config, name=name)
    entry_size = config.entry_size_bytes
    total_entries = sum(map(len, grouped.values()))
    total_bytes = total_entries * entry_size

    disk.stream_read(source_bytes if source_bytes is not None else total_bytes)

    extent = disk.allocate(total_bytes)
    buckets = []
    offset = 0
    for value in _ordered_values(grouped):
        entries = list(grouped[value])
        bucket = Bucket(
            value=value,
            entries=entries,
            extent=extent,
            shared=True,
            capacity_entries=len(entries),
            offset_in_extent=offset,
        )
        offset += len(entries) * entry_size
        buckets.append(bucket)
    disk.write(extent, total_bytes)

    _adopt_eager(index, extent, buckets, days, runs)
    return index


def clone_index_eager(index, *, name=None):
    """``updates.clone_index`` as it was: packed sources copied bucket by bucket."""
    if not index.packed:
        return _clone_index(index, name=name)
    disk = index.disk
    config = index.config
    clone = ConstituentIndex(disk, config, name=name or index.name)
    entry_size = config.entry_size_bytes

    disk.stream_read(index.allocated_bytes)
    extent = disk.allocate(index.used_bytes)
    buckets = []
    offset = 0
    for bucket in index.buckets():
        copied = Bucket(
            value=bucket.value,
            entries=list(bucket.entries),
            extent=extent,
            shared=True,
            capacity_entries=bucket.live_count,
            offset_in_extent=offset,
        )
        offset += bucket.live_count * entry_size
        buckets.append(copied)
    _adopt_eager(clone, extent, buckets, index.time_set)
    disk.stream_write(clone.allocated_bytes)
    return clone


@contextmanager
def eager_world():
    """Run the package with every packed index built bucket by bucket."""
    with (
        mock.patch.object(builder, "_pack", pack_eager),
        mock.patch.object(updates, "clone_index", clone_index_eager),
        mock.patch.object(executor, "clone_index", clone_index_eager),
    ):
        yield

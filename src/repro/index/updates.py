"""The three update techniques of Section 2.1.

* **In-place** — modify the live index directly.  Cheapest in space, but
  queries would need concurrency control, and the index ends up unpacked.
* **Simple shadow** — copy the index (``CP``), update the copy in place,
  then swap it in.  Queries keep using the old version meanwhile; costs one
  full copy of the index and doubles its space during the transition.
* **Packed shadow** — build a temporary packed index for the inserted
  records, then smart-copy (``SMCP``) the old index to a new contiguous
  location, dropping expired entries and merging in the new buckets.  The
  result is packed.

All three are exposed through two functions mirroring the paper's
constituent operations: :func:`add_to_index` and :func:`delete_from_index`.
Shadow variants return a *new* index and leave the original untouched; the
caller (the wave-index executor) is responsible for swapping it into the
wave index and dropping the old version — that ordering is what produces
the transition-time space spikes of Table 8.
"""

from __future__ import annotations

import enum
from typing import Any, Iterable, Mapping

from .bucket import Bucket, PackedLayout
from .constituent import ConstituentIndex
from .entry import Entry


class UpdateTechnique(enum.Enum):
    """How constituent indexes absorb a batch of updates (Section 2.1)."""

    IN_PLACE = "in_place"
    SIMPLE_SHADOW = "simple_shadow"
    PACKED_SHADOW = "packed_shadow"


def clone_index(
    index: ConstituentIndex, *, name: str | None = None
) -> ConstituentIndex:
    """Copy an index byte-for-byte to fresh extents (the paper's ``CP``).

    Charges one sequential read of the source's allocated bytes and one
    sequential write of the copy.  The copy preserves packedness and, for
    unpacked sources, every bucket's capacity (slack is copied too — simple
    shadowing does not repack).  A packed source's layout is immutable, so
    the copy shares it instead of laying the same entries out again.
    """
    disk = index.disk
    config = index.config
    clone = ConstituentIndex(disk, config, name=name or index.name)
    entry_size = config.entry_size_bytes

    disk.stream_read(index.allocated_bytes)
    if index.packed:
        # Packed but already laid out as buckets: only an op that wrote
        # nothing (an empty insert or delete) leaves an index so.
        layout = index._layout or PackedLayout.of(
            [{bucket.value: bucket.entries for bucket in index.buckets()}],
            entry_size,
        )
        extent = disk.allocate(index.used_bytes)
        clone._adopt_packed(extent, layout, index.time_set)
    else:
        for bucket in index.buckets():
            capacity = max(bucket.capacity_entries, bucket.live_count)
            extent = disk.allocate(capacity * entry_size)
            copied = Bucket(
                value=bucket.value,
                entries=list(bucket.entries),
                extent=extent,
                shared=False,
                capacity_entries=capacity,
                _lengths=bucket.lengths(),
            )
            clone._put_private(copied)
        clone.time_set = set(index.time_set)
        clone.packed = False
    disk.stream_write(clone.allocated_bytes)
    return clone


def packed_rewrite(
    index: ConstituentIndex,
    inserts: Mapping[Any, list[Entry]],
    insert_days: Iterable[int],
    delete_days: Iterable[int],
    *,
    name: str | None = None,
    source_bytes: int | None = None,
) -> ConstituentIndex:
    """Smart-copy an index into a new packed index (the paper's ``SMCP``).

    Follows Section 2.1's packed-shadow recipe: a temporary packed index is
    built for ``inserts``; the old index is scanned, entries of
    ``delete_days`` are dropped in flight, and the temporary buckets are
    merged in; the result is written contiguously.  The temporary index is
    freed before returning; the *old* index is left alive for the caller to
    swap out.
    """
    from . import builder  # local import: avoid cycle

    disk = index.disk
    config = index.config
    delete_set = set(delete_days)

    # Step 1: temporary packed index for the inserted records.
    temp = builder.build_packed_index(
        disk,
        config,
        inserts,
        insert_days,
        name=f"{name or index.name}.tmp",
        source_bytes=source_bytes,
    )

    # Step 2: merge old (minus expired) with temp into one packed layout.
    merged: dict[Any, list[Entry]] = {}
    for bucket in index.buckets():
        kept = [e for e in bucket.entries if e.day not in delete_set]
        if kept:
            merged[bucket.value] = kept
    for bucket in temp.buckets():
        merged.setdefault(bucket.value, []).extend(bucket.entries)

    new_days = (set(index.time_set) - delete_set) | set(insert_days)

    # The smart copy: read old + temp, write the packed result.
    result = builder._pack(
        disk,
        config,
        [merged],
        new_days,
        name=name or index.name,
        source_bytes=index.allocated_bytes + temp.allocated_bytes,
    )

    temp.drop()
    return result


def add_to_index(
    index: ConstituentIndex,
    grouped: Mapping[Any, list[Entry]],
    days: Iterable[int],
    technique: UpdateTechnique,
    *,
    source_bytes: int | None = None,
) -> ConstituentIndex:
    """``AddToIndex`` under the chosen technique.

    Returns the index that now holds the data: ``index`` itself for
    :attr:`UpdateTechnique.IN_PLACE`, otherwise a fresh shadow the caller
    must install (and then drop ``index``).
    """
    if technique is UpdateTechnique.IN_PLACE:
        index.insert_postings(grouped, days)
        return index
    if technique is UpdateTechnique.SIMPLE_SHADOW:
        shadow = clone_index(index)
        shadow.insert_postings(grouped, days)
        return shadow
    if technique is UpdateTechnique.PACKED_SHADOW:
        return packed_rewrite(
            index, grouped, days, delete_days=(), source_bytes=source_bytes
        )
    raise ValueError(f"unknown technique: {technique!r}")


def delete_from_index(
    index: ConstituentIndex,
    days: Iterable[int],
    technique: UpdateTechnique,
) -> ConstituentIndex:
    """``DeleteFromIndex`` under the chosen technique.

    Same return convention as :func:`add_to_index`.
    """
    if technique is UpdateTechnique.IN_PLACE:
        index.delete_days(days)
        return index
    if technique is UpdateTechnique.SIMPLE_SHADOW:
        shadow = clone_index(index)
        shadow.delete_days(days)
        return shadow
    if technique is UpdateTechnique.PACKED_SHADOW:
        return packed_rewrite(index, {}, (), delete_days=days)
    raise ValueError(f"unknown technique: {technique!r}")

"""Shard rebalancing: move a shard's window between devices.

A cluster that lives long enough needs to move shards — a device fills
up, runs hot, or is being drained.  The move is a *packed-shadow-style*
copy (the paper's ``SMCP`` applied across devices): the source index is
streamed off its device, written to the target as one contiguous packed
extent, and swapped into the wave index binding — at which point the old
extents are freed, which is exactly the moment the source device's page
cache must drop any pages it still holds for them (covered by the
rebalance tests).

All I/O is charged to the simulated cost clocks: one sequential read of
the source's allocated bytes on the source device, one write of the
packed result on the target device — so rebalances show up in the same
per-device accounting as maintenance and serving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..core.recovery import sweep_orphan_extents
from ..errors import ClusterError, FaultError
from ..index.bucket import PackedLayout
from ..index.constituent import ConstituentIndex
from ..storage.array import DiskArray
from ..storage.disk import SimulatedDisk
from .shard import ShardReplica


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of moving one replica's indexes to another device."""

    shard_id: int
    replica_id: int
    from_device: int
    to_device: int
    indexes_moved: int
    bytes_moved: int
    source_read_seconds: float
    target_write_seconds: float

    @property
    def seconds(self) -> float:
        """Return the move's total charged device time."""
        return self.source_read_seconds + self.target_write_seconds


def _lay_out_packed(
    clone: ConstituentIndex,
    target: SimulatedDisk,
    grouped: dict[Any, Sequence],
    time_set: set[int],
) -> ConstituentIndex:
    """Write ``grouped`` onto ``target`` as one packed extent of ``clone``."""
    entry_size = clone.config.entry_size_bytes
    total_entries = sum(len(entries) for entries in grouped.values())
    if total_entries == 0:
        # Nothing to lay out (an empty, fully-expired, or fully-filtered
        # index): the copy is just the metadata.
        clone.time_set = set(time_set)
        clone.packed = False
        return clone
    total_bytes = total_entries * entry_size
    extent = target.allocate(total_bytes)
    target.write(extent, total_bytes)
    clone._adopt_packed(extent, PackedLayout.of([grouped], entry_size), time_set)
    return clone


def copy_index_to(
    index: ConstituentIndex,
    target: SimulatedDisk,
    *,
    name: str | None = None,
    keep: Callable[[Any], bool] | None = None,
) -> ConstituentIndex:
    """Smart-copy ``index`` onto ``target``; return the new index.

    Cross-device variant of :func:`repro.index.updates.packed_rewrite`
    with no inserts or deletes: the source is read sequentially on its
    own device, and the copy lands on ``target`` as a single packed
    extent (bucket slack is squeezed out in flight, like any smart
    copy).  The source index is left untouched — the caller swaps it out
    and drops it, preserving the shadow ordering every scheme relies on.

    ``keep`` optionally filters by search value: only buckets whose value
    satisfies the predicate land on the target (the elastic engine's
    shard split passes the child's ownership test here).  The full source
    is still read — a split streams the parent once per child — but only
    the kept bytes are written.  The clone keeps the source's *complete*
    ``time_set`` either way: a shard covers every day of the window, even
    days where it happens to own no postings.
    """
    source = index.disk

    source.stream_read(index.allocated_bytes)
    clone = ConstituentIndex(target, index.config, name=name or index.name)
    grouped = {
        b.value: b.entries
        for b in index.buckets()
        if keep is None or keep(b.value)
    }
    return _lay_out_packed(clone, target, grouped, set(index.time_set))


def merge_indexes_to(
    indexes: Sequence[ConstituentIndex],
    target: SimulatedDisk,
    *,
    name: str,
) -> ConstituentIndex:
    """Merge-copy several source indexes into one packed index on ``target``.

    The shard-merge counterpart of :func:`copy_index_to`: each source is
    read sequentially on its own device, buckets for the same value are
    concatenated in source order, and the union lands on ``target`` as a
    single packed extent.  Sources are disjoint by construction (each
    shard owns a disjoint key slice), so concatenation is a true merge.
    The merged ``time_set`` is the union of the sources'.
    """
    if not indexes:
        raise ClusterError("merge_indexes_to needs >= 1 source index")
    config = indexes[0].config
    clone = ConstituentIndex(target, config, name=name)
    grouped: dict[Any, list] = {}
    time_set: set[int] = set()
    for index in indexes:
        index.disk.stream_read(index.allocated_bytes)
        for bucket in index.buckets():
            grouped.setdefault(bucket.value, []).extend(bucket.entries)
        time_set.update(index.time_set)
    return _lay_out_packed(clone, target, grouped, time_set)


def move_replica(
    replica: ShardReplica, target: SimulatedDisk, array: DiskArray
) -> RebalanceReport:
    """Move every binding of one-device ``replica`` onto ``target``.

    Two phases, so the move is fault-safe: first every index is
    smart-copied to the target device; only once *all* copies have landed
    are they swapped into the wave index (swap-then-drop, so the old
    version serves until the new one is bound; the drop frees the source
    extents and invalidates any cached pages of them).  A fault anywhere
    in the copy phase leaves the source replica fully intact — the
    completed clones are dropped, any half-written extent of the
    interrupted copy is swept off the target, and the fault propagates.
    Afterwards the replica's wave index and executor span point at the
    target, so future maintenance ops land there.  The report names the
    source and the target by their positions in ``array``.
    """
    wave = replica.wave
    source = replica.device
    source_before = source.clock
    target_before = target.clock
    clones: dict[str, ConstituentIndex] = {}
    try:
        for name in list(wave.bindings):
            clones[name] = copy_index_to(wave.bindings[name], target, name=name)
    except BaseException:
        for clone in clones.values():
            try:
                clone.drop()
            except FaultError:
                pass
        try:
            sweep_orphan_extents(wave, extra_disks=(target,))
        except FaultError:
            pass
        raise
    bytes_moved = 0
    moved = 0
    for name, clone in clones.items():
        bytes_moved += clone.allocated_bytes
        wave.bind(name, clone)
        moved += 1
    source_read = source.clock - source_before
    target_write = target.clock - target_before
    wave.disk = target
    replica.executor.span = DiskArray([target])
    return RebalanceReport(
        shard_id=replica.shard_id,
        replica_id=replica.replica_id,
        from_device=array.devices.index(source),
        to_device=array.devices.index(target),
        indexes_moved=moved,
        bytes_moved=bytes_moved,
        source_read_seconds=source_read,
        target_write_seconds=target_write,
    )

"""Constituent indexes: the individual indexes inside a wave index.

A :class:`ConstituentIndex` is one "conventional" index (Section 2): an
in-memory directory mapping search values to on-disk buckets of timestamped
entries.  It supports the paper's constituent-level operations:

* incremental insert via the CONTIGUOUS policy (``AddToIndex``),
* incremental delete (``DeleteFromIndex``),
* point probes and full scans, with time-range filtering,
* dropping the whole index in O(1) simulated time (``DropIndex``).

Cost charging follows Section 5's model exactly:

* a probe is one seek plus the bucket's live bytes,
* a scan is one seek plus the index's *allocated* bytes (so unpacked indexes
  with CONTIGUOUS slack, ``S'`` per day, scan slower than packed ones, ``S``
  per day — the distinction Tables 9–11 turn on),
* incremental updates pay for the appended bytes plus any CONTIGUOUS bucket
  reallocation copies,
* directory operations are free (the directory is assumed memory-resident).

A packed index is held in the form ``BuildIndex`` laid it down in — one
:class:`~repro.index.bucket.PackedLayout` of bucket offsets on one shared
extent — until it is first mutated: reads join what they ask for from
it, and ``insert_postings`` / ``delete_days`` lay the
:class:`~repro.index.bucket.Bucket` objects out on entry and carry on
from there.  Which form an index is in follows from
its history alone, and no simulated charge depends on it.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..errors import ConstituentIndexError
from ..storage.disk import SimulatedDisk
from ..storage.extent import Extent
from . import kernels
from .bucket import Bucket, PackedBucket, PackedLayout
from .config import IndexConfig
from .entry import Entry


class ConstituentIndex:
    """One constituent index of a wave index.

    Construct empty indexes with :meth:`create_empty`, packed ones with
    :func:`repro.index.builder.build_packed_index`.

    Attributes:
        name: Human-readable label (``"I1"``, ``"Temp"``, ...), used by the
            trace recorder that regenerates the paper's Tables 1–7.
        time_set: The set of days whose records this index covers — the
            paper's *time-set*.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        config: IndexConfig,
        *,
        name: str = "I",
    ) -> None:
        self.disk = disk
        self.config = config
        self.name = name
        self.directory = config.directory_factory()
        self.time_set: set[int] = set()
        self.packed = False
        self._shared_extent: Extent | None = None
        self._shared_live_buckets = 0
        # Bytes pinned by private bucket extents, moved beside each
        # statement that takes or gives one back and after the last call
        # that can raise (DESIGN.md, "Charge path"); check_wave_invariants
        # recounts it from referenced_extents().
        self._private_bytes = 0
        self._dropped = False
        # The flat packed form: while _layout is set it holds every entry,
        # the directory is empty, and _views memoises one read view per
        # slot.  _unpack (on entry to the first mutation) ends it.
        self._layout: PackedLayout | None = None
        self._views: list[PackedBucket | None] = []
        # Derived state, valid only for the contents it was made from; all
        # are dropped by _invalidate_derived on entry to every mutating op.
        # _runs: the posting runs this index was built from (see
        # build_index_from_store), held only while the index is exactly
        # their merge, so runs never outlive the packed indexes that could
        # hand them to the next build.  _sweep: the scan sweep (see sweep()),
        # built by the first scan that needs it after a mutation.
        # _day_runs: a layout laid from day runs' one-day scans (see
        # select()), one run per day, made by the first scan of that day.
        self._runs: tuple = ()
        self._sweep: kernels.Sweep | None = None
        self._day_runs: dict[int, kernels.Run] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create_empty(
        cls, disk: SimulatedDisk, config: IndexConfig, *, name: str = "I"
    ) -> "ConstituentIndex":
        """Return a new empty, unpacked index."""
        return cls(disk, config, name=name)

    def _adopt_packed(
        self,
        extent: Extent,
        layout: PackedLayout,
        days: Iterable[int],
        runs: tuple = (),
    ) -> None:
        """Internal: install a packed layout (used by the builder)."""
        self._invalidate_derived()
        self._runs = runs
        self._shared_extent = extent
        self.packed = True
        self._layout = layout
        self._views = [None] * len(layout.values)
        self.time_set = set(days)

    def _view(self, slot: int) -> PackedBucket:
        """Return the read view of ``slot`` of the flat form, made once."""
        view = self._views[slot]
        if view is None:
            view = self._views[slot] = PackedBucket(self._layout, slot)
        return view

    def _unpack(self) -> None:
        """Leave the flat form: lay every slot out as a shared bucket.

        Called beside :meth:`_invalidate_derived` on entry to the two ops
        that write buckets, which then find exactly what an eager
        per-bucket build would have left them — directory order, offsets,
        and the runs readers already built.  No read path comes here.
        """
        layout = self._layout
        if layout is None:
            return
        self._layout = None
        views, self._views = self._views, []
        extent = self._shared_extent
        entry_size = self.config.entry_size_bytes
        starts = layout.starts
        for slot, value in enumerate(layout.values):
            lo, hi = starts[slot], starts[slot + 1]
            view = views[slot]
            if view is None:
                entries, run = layout.entries(value), None
            else:
                entries, run = view.entries, view._run
            lengths = (
                layout.lengths(value) if layout.days else kernels.run_lengths(entries)
            )
            self.directory.put(
                value,
                Bucket(
                    value=value,
                    entries=list(entries),
                    extent=extent,
                    shared=True,
                    capacity_entries=hi - lo,
                    offset_in_extent=lo * entry_size,
                    _lengths=lengths,
                    _run=run,
                ),
            )
        self._shared_live_buckets = len(layout.values)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _check_not_dropped(self) -> None:
        if self._dropped:
            raise ConstituentIndexError(f"index {self.name} was dropped")

    def _invalidate_derived(self) -> None:
        """Drop everything derived from the current contents.

        Called on *entry* to each op that changes buckets, entries or
        extents (``_adopt_packed``, ``insert_postings``, ``delete_days``,
        ``drop``), so an op that dies half-way on a fault leaves nothing
        stale behind.  Derived state is dropped whole, never patched —
        the sweep takes its day runs with it, and the layout's day runs
        go too.
        """
        self._runs = ()
        self._sweep = None
        self._day_runs = {}

    @property
    def dropped(self) -> bool:
        """Return ``True`` once :meth:`drop` has run."""
        return self._dropped

    @property
    def days(self) -> frozenset[int]:
        """Return the index's time-set as an immutable set."""
        return frozenset(self.time_set)

    def covers(self, day: int) -> bool:
        """Return ``True`` if ``day`` is in the time-set."""
        return day in self.time_set

    @property
    def entry_count(self) -> int:
        """Return the number of live entries across all buckets."""
        self._check_not_dropped()
        if self._layout is not None:
            return self._layout.starts[-1]
        return sum(b.live_count for b in self.directory.values())

    @property
    def used_bytes(self) -> int:
        """Return bytes occupied by live entries."""
        entry_size = self.config.entry_size_bytes
        return self.entry_count * entry_size

    @property
    def allocated_bytes(self) -> int:
        """Return bytes pinned on disk by this index.

        Counts each private bucket extent plus the shared packed extent (in
        full — dead slices left by evicted buckets still pin space, exactly
        the fragmentation the paper's ``S'`` captures).
        """
        self._check_not_dropped()
        shared = self._shared_extent
        if shared is None:
            return self._private_bytes
        return self._private_bytes + shared.size

    def bucket(self, value: Any) -> Bucket | PackedBucket | None:
        """Return the bucket serving ``value`` (a read view of a flat index)."""
        layout = self._layout
        if layout is None:
            return self.directory.get(value)
        slot = layout.slots.get(value)
        return None if slot is None else self._view(slot)

    def buckets(self) -> Iterator[Bucket | PackedBucket]:
        """Iterate buckets in directory order (read views of a flat index)."""
        self._check_not_dropped()
        if self._layout is not None:
            return map(self._view, range(len(self._views)))
        return iter(self.directory.values())

    def referenced_extents(self) -> Iterator[Extent]:
        """Iterate every extent this index pins (shared extent + private buckets).

        Crash recovery treats the union of these, over all bindings, as the
        reachable set; anything else live on the disk is an orphan.
        """
        self._check_not_dropped()
        if self._shared_extent is not None:
            yield self._shared_extent
        for bucket in self.directory.values():  # empty in the flat form
            if not bucket.shared and bucket.extent is not None:
                yield bucket.extent

    def all_entries(self) -> Iterator[Entry]:
        """Iterate every live entry in directory/bucket order."""
        self._check_not_dropped()
        if self._layout is not None:
            return iter(self._layout.flat())
        return chain.from_iterable(b.entries for b in self.directory.values())

    # ------------------------------------------------------------------
    # Incremental insert (CONTIGUOUS)
    # ------------------------------------------------------------------

    def insert_postings(
        self,
        grouped: Mapping[Any, list[Entry]],
        days: Iterable[int],
    ) -> float:
        """Incrementally add postings; return simulated seconds spent.

        Implements ``AddToIndex`` with CONTIGUOUS placement: appends that fit
        cost only their own bytes; overflows reallocate the bucket ``g``
        times larger and pay to copy it.  Appending to a packed index evicts
        touched buckets into private extents, after which the index is no
        longer packed.

        ``days`` are the insert days of the postings' entries, which join
        the time-set: when there is one, every entry is of that day, and
        no entry's day is read.
        """
        self._check_not_dropped()
        self._invalidate_derived()
        self._unpack()
        start = self.disk.clock
        # Bucket updates hop randomly across the index; with a buffer-pool
        # model only the missing fraction of those hops pays a seek.  The
        # working set is passed explicitly even when it is 0 bytes — an
        # empty index is not a streaming caller, and a warm pool absorbs
        # its first touches instead of charging a full seek.
        seek = self.disk.effective_seeks(1.0, float(self.allocated_bytes))
        days = set(days)
        # A one-day insert: each bucket's run lengths grow by one pair.
        day = next(iter(days)) if len(days) == 1 else None
        for value, entries in grouped.items():
            if entries:
                self._append_to_bucket(value, entries, seek, day)
        self.time_set.update(days)
        if grouped:
            self.packed = False
        return self.disk.clock - start

    def _append_to_bucket(
        self,
        value: Any,
        entries: list[Entry],
        seek: float = 1.0,
        day: int | None = None,
    ) -> None:
        entry_size = self.config.entry_size_bytes
        policy = self.config.contiguous
        bucket = self.directory.get(value)
        if bucket is None:
            capacity = policy.initial_capacity(len(entries))
            extent = self.disk.allocate(capacity * entry_size)
            bucket = Bucket(
                value=value,
                extent=extent,
                shared=False,
                capacity_entries=capacity,
            )
            self._put_private(bucket)
            bucket.append_entries(entries, day)
            self.disk.write(extent, len(entries) * entry_size, seeks=seek)
            return

        if bucket.shared:
            self._evict_shared_bucket(bucket, extra=len(entries), seek=seek)

        if bucket.fits(len(entries)):
            bucket.append_entries(entries, day)
            # Append into the free tail: one (possibly cached) seek plus
            # the new bytes.
            self.disk.write(
                bucket.extent, len(entries) * entry_size, seeks=seek
            )
            return

        # Overflow: allocate a grown extent, copy old entries, append new.
        needed = bucket.live_count + len(entries)
        new_capacity = policy.grown_capacity(bucket.capacity_entries, needed)
        old_extent = bucket.extent
        new_extent = self.disk.allocate(new_capacity * entry_size)
        self.disk.read(old_extent, bucket.live_count * entry_size, seeks=seek)
        bucket.append_entries(entries, day)
        self.disk.write(
            new_extent, bucket.live_count * entry_size, seeks=seek
        )
        self.disk.free(old_extent)
        bucket.extent = new_extent
        bucket.capacity_entries = new_capacity
        self._private_bytes += new_extent.size - old_extent.size

    def _put_private(self, bucket: Bucket) -> None:
        """Enter a bucket that owns its extent and count the extent's bytes."""
        self.directory.put(bucket.value, bucket)
        self._private_bytes += bucket.extent.size

    def _evict_shared_bucket(
        self, bucket: Bucket, *, extra: int = 0, seek: float = 1.0
    ) -> None:
        """Move a packed bucket into a private CONTIGUOUS extent."""
        entry_size = self.config.entry_size_bytes
        policy = self.config.contiguous
        needed = bucket.live_count + extra
        capacity = policy.initial_capacity(needed)
        new_extent = self.disk.allocate(capacity * entry_size)
        self.disk.read(
            self._shared_extent,
            bucket.live_count * entry_size,
            seeks=seek,
            offset=bucket.offset_in_extent,
        )
        self.disk.write(new_extent, bucket.live_count * entry_size, seeks=seek)
        bucket.extent = new_extent
        bucket.shared = False
        bucket.capacity_entries = capacity
        bucket.offset_in_extent = 0
        self._private_bytes += new_extent.size
        self._shared_live_buckets -= 1
        if self._shared_live_buckets == 0 and self._shared_extent is not None:
            # Every bucket left the shared extent; reclaim it.
            self.disk.free(self._shared_extent)
            self._shared_extent = None

    # ------------------------------------------------------------------
    # Incremental delete
    # ------------------------------------------------------------------

    def delete_days(self, days: Iterable[int]) -> float:
        """Incrementally delete all entries of ``days``; return seconds spent.

        Implements ``DeleteFromIndex``: each affected bucket is read,
        compacted, and written back in place.  Buckets that become empty are
        removed from the directory and their private extents freed; sparse
        buckets shrink per the CONTIGUOUS policy.  A bucket's stored run
        lengths say whether it holds any of ``days`` and where: the ones
        that hold none are skipped, and the others lose those days' spans
        by offset (:func:`~repro.index.kernels.cut_runs`), with no entry
        read.  The check, the skip and the one-slice cut of a lone first
        run sit in the loop itself: a call a bucket costs what the cut
        saves (DESIGN.md, "The delete cuts by offset").
        """
        self._check_not_dropped()
        self._invalidate_derived()
        self._unpack()
        day_set = set(days)
        if not day_set:
            return 0.0
        start = self.disk.clock
        entry_size = self.config.entry_size_bytes
        policy = self.config.contiguous
        # As in insert_postings: the working set is explicit (0 bytes is a
        # real working set, not a streaming marker).
        seek = self.disk.effective_seeks(1.0, float(self.allocated_bytes))
        removed_any = False
        read, write = self.disk.read, self.disk.write
        for value, bucket in list(self.directory.items()):
            entries = bucket.entries
            # Bucket.lengths(), inline: pairs that miscount the entries
            # (written behind the writers' backs) are encoded again.
            lengths = bucket._lengths
            if sum(lengths[1::2]) != len(entries):
                lengths = bucket.lengths()
            held = lengths[0::2]
            if day_set.isdisjoint(held):
                continue
            if day_set.isdisjoint(held[1:]):
                # Only the first run goes: DEL's daily delete of its
                # oldest day is one slice.
                kept, lengths = entries[lengths[1]:], lengths[2:]
            else:
                kept, lengths = kernels.cut_runs(entries, lengths, day_set)
            removed_any = True
            # Read the bucket as it was, compact it, write it back in
            # place: a fault on the read leaves the entries untouched, one
            # on the write leaves them compacted.  (Where it lives is
            # _bucket_position's answer, inline.)
            if bucket.shared:
                extent, offset = self._shared_extent, bucket.offset_in_extent
            else:
                extent, offset = bucket.extent, 0
            read(extent, len(entries) * entry_size, seeks=seek, offset=offset)
            bucket.replace_entries(kept, lengths)
            write(extent, len(kept) * entry_size, seeks=seek, offset=offset)
            if not kept:
                self._retire_bucket(value, bucket)
            elif not bucket.shared and policy.should_shrink(
                bucket.capacity_entries, len(kept)
            ):
                self._shrink_bucket(bucket)
        self.time_set.difference_update(day_set)
        if removed_any:
            # Holes (packed) or slack (contiguous) remain: no longer packed.
            self.packed = False
        return self.disk.clock - start

    def _retire_bucket(self, value: Any, bucket: Bucket) -> None:
        self.directory.remove(value)
        if bucket.shared:
            self._shared_live_buckets -= 1
            if self._shared_live_buckets == 0 and self._shared_extent is not None:
                self.disk.free(self._shared_extent)
                self._shared_extent = None
        elif bucket.extent is not None:
            self.disk.free(bucket.extent)
            self._private_bytes -= bucket.extent.size
            bucket.extent = None

    def _shrink_bucket(self, bucket: Bucket) -> None:
        entry_size = self.config.entry_size_bytes
        new_capacity = self.config.contiguous.shrunk_capacity(bucket.live_count)
        if new_capacity >= bucket.capacity_entries:
            return
        new_extent = self.disk.allocate(new_capacity * entry_size)
        self.disk.write(new_extent, bucket.live_count * entry_size)
        self.disk.free(bucket.extent)
        self._private_bytes += new_extent.size - bucket.extent.size
        bucket.extent = new_extent
        bucket.capacity_entries = new_capacity

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def probe(self, value: Any) -> tuple[list[Entry], float]:
        """Point lookup: a one-value :meth:`probe_batch_buckets`.

        Returns ``(entries, seconds)``: one seek plus the bucket's live
        bytes; a miss costs nothing (the directory is memory-resident).
        """
        found, _ = self.probe_batch_buckets((value,))
        if not found:
            return [], 0.0
        ((bucket, seconds),) = found.values()
        return list(bucket.entries), seconds

    def _bucket_position(
        self, bucket: Bucket | PackedBucket
    ) -> tuple[Extent, int]:
        """Return the extent holding ``bucket`` and its byte offset in it."""
        if bucket.shared:
            return self._shared_extent, bucket.offset_in_extent
        return bucket.extent, 0

    def probe_batch_buckets(
        self, values: Iterable[Any]
    ) -> tuple[dict[Any, tuple[Bucket | PackedBucket, float]], int]:
        """Probe several values in one offset-ordered sweep.

        Duplicate values are read once.  Bucket touches are sorted by
        physical position (extent offset, then offset inside a shared
        extent): the first touch of each extent pays a seek, subsequent
        touches of the *same* extent ride the sweep with ``seeks=0`` —
        how a batched server amortizes positioning over a packed index.

        Returns:
            ``(found, buckets_read)`` where ``found`` maps each requested
            value with a bucket to ``(bucket, seconds)`` for its read.
            Values with no bucket are absent (a directory miss is free).
            The buckets are the live :class:`Bucket` objects (or the
            flat form's read views), uncopied, so batch filtering
            (:mod:`repro.index.kernels`) can slice their cached day
            columns; callers must not mutate them.
        """
        self._check_not_dropped()
        # One tuple per bucket located: where it is (the sort key — extent
        # offset, then offset inside the extent, then arrival so a tie
        # keeps request order and nothing unorderable is compared) and
        # what to read there.
        touches: list[tuple[int, int, int, Extent, Bucket | PackedBucket]] = []
        shared = self._shared_extent
        layout = self._layout
        entry_size = self.config.entry_size_bytes
        if layout is None:
            get = self.directory.get
            for value in dict.fromkeys(values):
                bucket = get(value)
                if bucket is None:
                    continue
                if bucket.shared:
                    extent, offset = shared, bucket.offset_in_extent
                else:
                    extent, offset = bucket.extent, 0
                touches.append(
                    (extent.offset, offset, len(touches), extent, bucket)
                )
        else:
            # self.bucket(value), inlined: a call per value costs qps.
            slots, views, starts = layout.slots, self._views, layout.starts
            shared_offset = shared.offset
            for value in dict.fromkeys(values):
                slot = slots.get(value)
                if slot is not None:
                    bucket = views[slot] or self._view(slot)
                    touches.append(
                        (shared_offset, starts[slot] * entry_size,
                         len(touches), shared, bucket)
                    )
        touches.sort()
        found: dict[Any, tuple[Bucket | PackedBucket, float]] = {}
        read = self.disk.read
        previous_extent_id: int | None = None
        for _, offset, _, extent, bucket in touches:
            extent_id = extent.extent_id
            seconds = read(
                extent,
                len(bucket.entries) * entry_size,
                seeks=0.0 if extent_id == previous_extent_id else 1.0,
                offset=offset,
            )
            previous_extent_id = extent_id
            found[bucket.value] = (bucket, seconds)
        return found, len(touches)

    def sweep(self) -> kernels.Sweep:
        """Return this index's scan sweep, building it if none is cached.

        The sweep (live entries in scan order, their day column, the
        bytes a scan transfers) is derived state: the first call after a
        mutation builds it from the buckets' entry lists — touching no
        bucket's own day column; a flat index's is its layout's
        :meth:`~repro.index.bucket.PackedLayout.flat`, as it is — and
        publishes it with one assignment; later calls return the same
        immutable object until the next mutating op drops it.  Reading it
        charges nothing: a query pays through :meth:`charge_scan` first.
        A scan that :meth:`select` answers from a day run never builds
        it.
        """
        self._check_not_dropped()
        sweep = self._sweep
        if sweep is None:
            if self._layout is not None:
                flat: Sequence[Entry] = self._layout.flat()
            else:
                flat = []
                for bucket in self.directory.values():
                    flat.extend(bucket.entries)
            sweep = self._sweep = kernels.Sweep.of(flat, self.allocated_bytes)
        return sweep

    def select(
        self, t1: int, t2: int
    ) -> tuple[Sequence[Entry], kernels.Part | None]:
        """Return the live entries with insert day in ``[t1, t2]``, in scan
        order, as a :func:`kernels.select <repro.index.kernels.select>`
        pair.

        A flat index laid from day runs answers a range holding exactly
        one of its days with entries by that day's run — its grouping
        laid out in slot order (:meth:`PackedLayout.day_run
        <repro.index.bucket.PackedLayout.day_run>`), made by the first
        such scan and kept with the index's other derived state — and a
        range holding none by nothing.  Every other range filters the
        :meth:`sweep`.  Reading charges nothing: a query pays through
        :meth:`charge_scan` first.
        """
        layout = self._layout
        if layout is not None and layout.days:
            held = [
                day
                for day, grouping in zip(layout.days, layout.groupings)
                if grouping and t1 <= day <= t2
            ]
            if not held:
                return (), None
            if len(held) == 1:
                (day,) = held
                run = self._day_runs.get(day)
                if run is None:
                    run = self._day_runs[day] = layout.day_run(day)
                return run.entries, (run, 0, len(run.entries))
        return kernels.select(self.sweep(), t1, t2)

    def charge_scan(self) -> float:
        """Charge one full transfer of the index; return the seconds.

        One seek plus the index's *allocated* bytes — a packed index
        transfers exactly its live bytes; an unpacked one also drags its
        CONTIGUOUS slack and dead slices (``S'`` vs ``S``).  Every scan
        form pays this on every call, before it looks at an entry, so a
        failed device raises here whatever is cached in memory.
        """
        self._check_not_dropped()
        sweep = self._sweep
        return self.disk.stream_read(
            self.allocated_bytes if sweep is None else sweep.nbytes
        )

    def scan(self) -> tuple[list[Entry], float]:
        """Full segment scan: return ``(entries, seconds)``.

        Costs :meth:`charge_scan`; the entries are a fresh list copied
        from the :meth:`sweep`, in directory/bucket order.
        """
        seconds = self.charge_scan()
        return list(self.sweep().entries), seconds

    # ------------------------------------------------------------------
    # Drop
    # ------------------------------------------------------------------

    def drop(self) -> None:
        """Free every extent and invalidate the index.

        O(1) simulated time: the paper's motivating observation is that a
        DBMS drops an index in milliseconds regardless of size.
        """
        self._check_not_dropped()
        self._invalidate_derived()
        for bucket in self.directory.values():
            if not bucket.shared and bucket.extent is not None:
                self.disk.free(bucket.extent)
                bucket.extent = None
        if self._shared_extent is not None:
            self.disk.free(self._shared_extent)
            self._shared_extent = None
        self.directory = self.config.directory_factory()
        self._private_bytes = 0
        self._layout = None
        self._views = []
        self.time_set = set()
        self._shared_live_buckets = 0
        self._dropped = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        days = ",".join(str(d) for d in sorted(self.time_set))
        kind = "packed" if self.packed else "contiguous"
        return f"ConstituentIndex({self.name}, days=[{days}], {kind})"

"""Clocked simulated disk.

:class:`SimulatedDisk` combines an :class:`~repro.storage.allocator.ExtentAllocator`
with a :class:`~repro.storage.cost.DiskParameters` cost model and a running
clock.  Index code allocates extents, then *reads* and *writes* through the
disk so every byte moved is charged ``seek + bytes/bandwidth`` seconds.

This is the substitution for the paper's physical DEC-3000 disk: the paper's
Section-5 analysis is expressed entirely in ``seek`` and ``Trans``, so a
device that charges those two costs reproduces every trend the paper derives
from them (DESIGN.md, substitution table).

The disk does not store payload bytes — indexes keep their entries in Python
structures and use extents purely as placement/cost bookkeeping.  This keeps
multi-hundred-megabyte "days" affordable in memory while preserving the
byte-exact accounting the experiments need.
"""

from __future__ import annotations

from .allocator import ExtentAllocator
from .bufferpool import BufferPoolModel
from .cost import DiskParameters
from .extent import Extent
from .pagecache import PageCache
from .stats import IOSnapshot, IOStats


class SimulatedDisk:
    """A byte-addressed device with seek/transfer cost accounting.

    Args:
        params: Hardware cost parameters; defaults to Table 12's disk
            (14 ms seek, 10 MB/s transfer, unbounded capacity).
        buffer_pool: Optional *analytic* residency model — scales seek
            counts by a closed-form miss rate (the paper's memoryless
            Section-5 behaviour).
        page_cache: Optional *trace-driven* LRU page cache — when present
            it supersedes the analytic model: every extent read/write is
            routed through it and cached page touches skip their
            seek/transfer charges (see :mod:`repro.storage.pagecache`).
    """

    def __init__(
        self,
        params: DiskParameters | None = None,
        buffer_pool: "BufferPoolModel | None" = None,
        page_cache: "PageCache | None" = None,
    ) -> None:
        self.params = params or DiskParameters()
        self.buffer_pool = buffer_pool
        self.page_cache = page_cache
        self._allocator = ExtentAllocator(self.params.capacity_bytes)
        self.stats = IOStats()
        self._clock = 0.0

    def effective_seeks(
        self, seeks: float, working_set_bytes: float | None = None
    ) -> float:
        """Scale ``seeks`` by the buffer pool's miss rate, if modelled.

        Random-access callers (CONTIGUOUS bucket updates) pass the size of
        the structure they hop around in; streaming callers pass ``None``
        and always pay their nominal seeks.

        With a trace-driven :class:`PageCache` attached the nominal seeks
        are returned unscaled: the cache itself decides, touch by touch,
        which I/Os are memory-speed — applying the analytic discount too
        would double-count residency.
        """
        if self.page_cache is not None:
            return seeks
        if self.buffer_pool is None or working_set_bytes is None:
            return seeks
        return self.buffer_pool.effective_seeks(seeks, working_set_bytes)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def clock(self) -> float:
        """Return elapsed simulated seconds since the disk was created."""
        return self._clock

    def advance(self, seconds: float) -> None:
        """Advance the clock without I/O (e.g. CPU-bound work models)."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self._clock += seconds

    @property
    def failed(self) -> bool:
        """Return ``True`` once the device has failed for good (a plain
        disk never does; :class:`~repro.storage.faults.FaultyDisk` can)."""
        return False

    # ------------------------------------------------------------------
    # Space management
    # ------------------------------------------------------------------

    def allocate(self, nbytes: int) -> Extent:
        """Allocate a contiguous extent; free space costs no I/O time."""
        return self._allocator.allocate(nbytes)

    def free(self, extent: Extent) -> None:
        """Release an extent.

        Freeing is instantaneous in the model, mirroring the paper's
        observation that a commercial DBMS throws away a whole index in
        milliseconds regardless of size — the heart of WATA's advantage.
        Any cached pages of the extent are invalidated, so a recycled
        offset can never produce a stale hit.
        """
        if self.page_cache is not None:
            self.page_cache.invalidate_extent(extent)
        self._allocator.free(extent)

    def reallocate(self, extent: Extent, nbytes: int) -> Extent:
        """Allocate a new extent of ``nbytes`` and free ``extent``.

        The new extent is allocated *before* the old one is freed, exactly
        as CONTIGUOUS must do (the old bucket is copied into the new one),
        so the transient space spike is captured by the high-water mark.
        """
        new = self._allocator.allocate(nbytes)
        if self.page_cache is not None:
            self.page_cache.invalidate_extent(extent)
        self._allocator.free(extent)
        return new

    @property
    def live_bytes(self) -> int:
        """Return currently allocated bytes."""
        return self._allocator.live_bytes

    @property
    def high_water_bytes(self) -> int:
        """Return the maximum of :attr:`live_bytes` since the last reset."""
        return self._allocator.high_water_bytes

    def reset_high_water(self) -> None:
        """Restart peak-space tracking from the current live size."""
        self._allocator.reset_high_water()

    @property
    def live_extents(self) -> int:
        """Return the number of live extents."""
        return self._allocator.live_extents

    def live_extent_list(self) -> list[Extent]:
        """Return the live extent handles (see the allocator's method)."""
        return self._allocator.live_extent_list()

    def check_invariants(self) -> None:
        """Delegate to the allocator's consistency checks."""
        self._allocator.check_invariants()

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def read(
        self,
        extent: Extent,
        nbytes: int | None = None,
        *,
        seeks: float = 1,
        offset: int = 0,
    ) -> float:
        """Charge a read of ``nbytes`` (default: the whole extent).

        Returns the seconds the read took.  ``seeks`` defaults to one: any
        random access pays a seek, while callers streaming many adjacent
        extents (a packed segment scan) pass ``seeks=0`` for all but the
        first extent.  ``offset`` locates the touch inside the extent (a
        bucket's slice of a shared packed extent) so the page cache tracks
        the right pages; it does not change the charge on a cacheless disk.

        The whole charge happens in this frame (DESIGN.md, "Charge
        path"): validate, touch the cache's pages, price, count, advance
        the clock — a one-page touch with its LRU step, spans of two
        pages and up through :meth:`PageCache.touch_span`.  A refused
        touch changes nothing — not the clock, not a counter, not the
        cache.
        """
        if nbytes is None:
            nbytes = extent.size
        if (
            not extent.live
            or offset < 0
            or nbytes < 0
            or offset + nbytes > extent.size
            or seeks < 0
        ):
            self._refuse(extent, nbytes, seeks, offset, "read")
        cache = self.page_cache
        if cache is not None:
            if nbytes == 0:
                seeks, nbytes = 0.0, 0  # an empty touch reads nothing, no seek
            else:
                # Resident pages are memory-speed: only the owed remainder
                # (seek if any page missed, transfer of missed pages, clipped
                # to the extent) reaches the device and the counters.
                page_size = cache.page_size
                first = offset // page_size
                last = (offset + nbytes - 1) // page_size
                if first != last:
                    missed = cache.touch_span(extent.extent_id, first, last, True)
                    if missed == 0:
                        seeks, nbytes = 0.0, 0
                    else:
                        nbytes = min(missed * page_size, extent.size)
                else:
                    # One page: a hit moves it to the LRU's end; a miss evicts
                    # the oldest page if the cache is full, then enters it.
                    key = (extent.extent_id, first)
                    pages = cache._pages
                    if key in pages:
                        pages.move_to_end(key)
                        cache.hits += 1
                        cache.read_hits += 1
                        seeks, nbytes = 0.0, 0
                    else:
                        cache.misses += 1
                        if len(pages) >= cache.capacity_pages:
                            pages.popitem(last=False)
                            cache.evictions += 1
                        pages[key] = None
                        nbytes = min(page_size, extent.size)
        params = self.params
        seconds = seeks * params.seek_s + nbytes / params.bandwidth_bps
        stats = self.stats
        stats.reads += 1
        stats.seeks += seeks
        stats.bytes_read += nbytes
        stats.busy_seconds += seconds
        self._clock += seconds
        return seconds

    def write(
        self,
        extent: Extent,
        nbytes: int | None = None,
        *,
        seeks: float = 1,
        offset: int = 0,
    ) -> float:
        """Charge a write of ``nbytes`` (default: the whole extent).

        One frame and all-or-nothing, as :meth:`read`.
        """
        if nbytes is None:
            nbytes = extent.size
        if (
            not extent.live
            or offset < 0
            or nbytes < 0
            or offset + nbytes > extent.size
            or seeks < 0
        ):
            self._refuse(extent, nbytes, seeks, offset, "write")
        cache = self.page_cache
        if cache is not None and nbytes:
            # Write-through: the transfer always reaches the device, but a
            # fully resident touch has its seek absorbed by the warm pool
            # (an empty touch owes its seek).  Pages are touched as by
            # :meth:`read`.
            page_size = cache.page_size
            first = offset // page_size
            last = (offset + nbytes - 1) // page_size
            if first != last:
                if cache.touch_span(extent.extent_id, first, last, False) == 0:
                    seeks = 0.0
            else:
                key = (extent.extent_id, first)
                pages = cache._pages
                if key in pages:
                    pages.move_to_end(key)
                    cache.hits += 1
                    cache.write_hits += 1
                    seeks = 0.0
                else:
                    cache.misses += 1
                    if len(pages) >= cache.capacity_pages:
                        pages.popitem(last=False)
                        cache.evictions += 1
                    pages[key] = None
        params = self.params
        seconds = seeks * params.seek_s + nbytes / params.bandwidth_bps
        stats = self.stats
        stats.writes += 1
        stats.seeks += seeks
        stats.bytes_written += nbytes
        stats.busy_seconds += seconds
        self._clock += seconds
        return seconds

    @staticmethod
    def _refuse(
        extent: Extent, nbytes: int, seeks: float, offset: int, kind: str
    ) -> None:
        """Raise for a touch :meth:`read` / :meth:`write` found invalid.

        Liveness first, then range, then seeks — the order the checks
        were made in when each was a call of its own.
        """
        extent.check_live()
        if offset < 0 or nbytes < 0 or offset + nbytes > extent.size:
            raise ValueError(
                f"{kind} of {nbytes} bytes at offset {offset} outside "
                f"extent of {extent.size} bytes"
            )
        raise ValueError(f"seeks must be >= 0, got {seeks}")

    def stream_read(self, nbytes: int, *, seeks: float = 1) -> float:
        """Charge a sequential read of ``nbytes`` without a specific extent.

        Used for scanning a day's source records during ``BuildIndex`` and
        for whole-index scans/copies, which the paper models as a single
        seek followed by one long transfer (Table 9).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        seconds = self.params.io_time(nbytes, seeks=seeks)
        self.stats.record_read(nbytes, seeks, seconds)
        self._clock += seconds
        return seconds

    def stream_write(self, nbytes: int, *, seeks: float = 1) -> float:
        """Charge a sequential write of ``nbytes`` without a specific extent.

        The space itself must already have been accounted via
        :meth:`allocate`; this only charges the transfer time.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        seconds = self.params.io_time(nbytes, seeks=seeks)
        self.stats.record_write(nbytes, seeks, seconds)
        self._clock += seconds
        return seconds

    def snapshot(self) -> IOSnapshot:
        """Return a snapshot of the I/O counters."""
        return self.stats.snapshot()

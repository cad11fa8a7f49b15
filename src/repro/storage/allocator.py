"""First-fit extent allocator with free-list coalescing.

The allocator hands out contiguous byte ranges from a linear address space.
It exists for two reasons:

* **Space accounting.**  The paper's space measures (Table 8, Figure 3,
  Figure 11) are about how many bytes a wave index pins at its worst moment.
  The allocator tracks live bytes and the all-time high-water mark.
* **Contiguity.**  ``BuildIndex`` must produce a *packed* index whose buckets
  are "allocated contiguously on disk" (Section 2).  The allocator's
  first-fit policy plus end-of-space growth makes a single allocation
  contiguous by construction, so a packed index really is scannable with one
  seek in the cost model.

Freed ranges are coalesced with their neighbours so long-running simulations
(e.g. the 200-day Figure 11 run) do not fragment the free list.

**First fit without slivers.**  Coalescing cannot merge what a live
neighbour keeps apart, so the offset-ordered free list fills up with
remnants narrower than any request the device sees (a 64-byte bucket
placed in an 80-byte hole leaves 16 bytes free until a neighbour goes).
Beside the free list the allocator keeps a second list: the same ranges,
in the same order, filtered to those at least as wide as the smallest
request seen so far (the *floor*).  First fit searches that list.  A
range below the floor cannot fit any request up to now, and a smaller
request re-filters the list before it searches, so the first fitting
range — and with it every offset, the free list and the frontier — is
exactly what a walk over the whole free list finds.
The linear walk is the test-side oracle (``tests/reference/allocator.py``).
"""

from __future__ import annotations

from bisect import bisect_left

from ..errors import ExtentError, OutOfSpaceError
from .extent import Extent


class ExtentAllocator:
    """First-fit allocator over ``[0, capacity)`` (or an unbounded space).

    Args:
        capacity_bytes: Total space available, or ``None`` for an unbounded
            device that grows at the end as needed.
    """

    def __init__(self, capacity_bytes: int | None = None) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be > 0 or None, got {capacity_bytes}"
            )
        self._capacity = capacity_bytes
        # Free list as sorted, non-overlapping, non-adjacent (offset, size).
        self._free: list[tuple[int, int]] = []
        # The free ranges at least ``_floor`` bytes wide, in the same order:
        # what first fit searches.  ``_floor`` is the smallest non-zero
        # request seen so far (none yet: no range qualifies).
        self._fit: list[tuple[int, int]] = []
        self._floor: float = float("inf")
        # First never-allocated byte; space beyond it is implicitly free.
        self._frontier = 0
        self._live: dict[int, Extent] = {}
        self._live_bytes = 0
        self._high_water = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def live_bytes(self) -> int:
        """Return the number of currently allocated bytes."""
        return self._live_bytes

    @property
    def high_water_bytes(self) -> int:
        """Return the maximum of :attr:`live_bytes` over the allocator's life."""
        return self._high_water

    def reset_high_water(self) -> None:
        """Restart peak tracking from the current live size.

        Lets callers measure the peak of a bounded activity window (e.g.
        one wave-index transition) exactly, even while shadow copies spike
        and fall inside a single operation.
        """
        self._high_water = self._live_bytes

    @property
    def live_extents(self) -> int:
        """Return the count of live extents."""
        return len(self._live)

    @property
    def frontier(self) -> int:
        """Return the first byte address never handed out."""
        return self._frontier

    def live_extent_list(self) -> list[Extent]:
        """Return the live extents (handles, not copies), offset-ordered.

        Crash recovery's mark-and-sweep uses this to find extents no index
        binding references any more (orphans of an interrupted operation).
        """
        return sorted(self._live.values(), key=lambda e: e.offset)

    def free_ranges(self) -> list[tuple[int, int]]:
        """Return a copy of the explicit free list as ``(offset, size)`` pairs."""
        return list(self._free)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, nbytes: int) -> Extent:
        """Allocate a contiguous extent of ``nbytes``.

        Zero-byte allocations are legal (an empty index still needs an
        identity) and consume no space.

        Raises:
            OutOfSpaceError: If the device is bounded and no free range or
                frontier space can satisfy the request.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        offset = self._find_offset(nbytes)
        extent = Extent(offset=offset, size=nbytes)
        self._live[extent.extent_id] = extent
        self._live_bytes += nbytes
        self._high_water = max(self._high_water, self._live_bytes)
        return extent

    def _find_offset(self, nbytes: int) -> int:
        if nbytes == 0:
            return self._frontier
        if nbytes < self._floor:
            self._floor = nbytes
            self._fit = [r for r in self._free if r[1] >= nbytes]
        fit = self._fit
        for j, (off, size) in enumerate(fit):
            if size >= nbytes:
                free = self._free
                i = bisect_left(free, (off,))
                if size == nbytes:
                    del free[i]
                    del fit[j]
                else:
                    rest = (off + nbytes, size - nbytes)
                    free[i] = rest
                    if rest[1] >= self._floor:
                        fit[j] = rest
                    else:
                        del fit[j]
                return off
        # Grow at the frontier.
        end = self._frontier + nbytes
        if self._capacity is not None and end > self._capacity:
            raise OutOfSpaceError(
                f"cannot allocate {nbytes} bytes: frontier at "
                f"{self._frontier}, capacity {self._capacity}, and no free "
                "range is large enough"
            )
        offset = self._frontier
        self._frontier = end
        return offset

    def free(self, extent: Extent) -> None:
        """Release ``extent`` back to the free list.

        Raises:
            ExtentError: If the extent was already freed or is unknown.
        """
        extent.check_live()
        if extent.extent_id not in self._live:
            raise ExtentError(
                f"extent #{extent.extent_id} does not belong to this allocator"
            )
        del self._live[extent.extent_id]
        extent.live = False
        self._live_bytes -= extent.size
        if extent.size > 0:
            self._insert_free(extent.offset, extent.size)

    def _insert_free(self, offset: int, size: int) -> None:
        """Insert a range into the free list, coalescing with neighbours."""
        free = self._free
        i = bisect_left(free, (offset, 0))
        # Coalesce with predecessor.
        if i > 0:
            prev_off, prev_size = free[i - 1]
            if prev_off + prev_size == offset:
                offset, size = prev_off, prev_size + size
                del free[i - 1]
                i -= 1
        # Coalesce with successor.
        if i < len(free):
            next_off, next_size = free[i]
            if offset + size == next_off:
                size += next_size
                del free[i]
        # The merged range replaces whatever of it the filtered list held
        # (the neighbours it swallowed, at most two).  It always qualifies:
        # it is at least the freed extent, which some request at or above
        # the floor made.
        fit = self._fit
        end = offset + size
        j = bisect_left(fit, (offset,))
        k = bisect_left(fit, (end,), j)
        # Coalesce with the frontier: return trailing space entirely.
        if end == self._frontier:
            self._frontier = offset
            del fit[j:k]
        else:
            free.insert(i, (offset, size))
            fit[j:k] = [(offset, size)]

    # ------------------------------------------------------------------
    # Validation helpers (used heavily by property tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert internal consistency; raises ``AssertionError`` on breakage.

        Checks that live extents never overlap each other or the free list,
        that the free list is sorted/coalesced, that the list first fit
        searches is the free list filtered at the floor, and that byte
        accounting matches the extent population.
        """
        extents = sorted(self._live.values(), key=lambda e: e.offset)
        for a, b in zip(extents, extents[1:]):
            assert not a.overlaps(b), f"live extents overlap: {a} vs {b}"
        total = sum(e.size for e in extents)
        assert total == self._live_bytes, (
            f"live byte accounting drifted: {total} != {self._live_bytes}"
        )
        last_end = None
        for off, size in self._free:
            assert size > 0, "zero-sized free range"
            assert off + size <= self._frontier, "free range beyond frontier"
            if last_end is not None:
                assert off > last_end, "free list not sorted/coalesced"
            last_end = off + size
        floor = self._floor
        assert self._fit == [r for r in self._free if r[1] >= floor], (
            f"first-fit list drifted from the free list filtered at {floor}"
        )
        for ext in extents:
            if ext.size == 0:
                # Zero-size extents are positionless handles; the frontier
                # may retract past their nominal offset.
                continue
            assert ext.end <= self._frontier, f"{ext} beyond frontier"
            for off, size in self._free:
                free_ext = Extent(offset=off, size=size, extent_id=-1)
                assert not ext.overlaps(free_ext), (
                    f"{ext} overlaps free range [{off}, {off + size})"
                )

"""First fit as a walk over the whole free list.

How ``ExtentAllocator`` placed a request before it kept a second,
sliver-free list to search: ``_find_offset`` walked the offset-ordered
free list from its start, remnants narrower than any request included,
and ``_insert_free`` coalesced into that one list.  Kept word for word;
an allocator built from :class:`LinearFirstFit` is the statement of what
every offset, free list, frontier, live and high-water byte count and
error text of the real allocator must equal
(``tests/storage/test_first_fit.py``).
"""

import bisect

from repro.errors import OutOfSpaceError
from repro.storage.allocator import ExtentAllocator


class LinearFirstFit(ExtentAllocator):
    """An allocator whose first fit searches every free range.

    It never fills the filtered list, and its floor stays above every
    request, so the allocator's own invariant check (the filtered list is
    the free list filtered at the floor: empty) holds for it too.
    """

    def _find_offset(self, nbytes):
        if nbytes == 0:
            return self._frontier
        for i, (off, size) in enumerate(self._free):
            if size >= nbytes:
                if size == nbytes:
                    del self._free[i]
                else:
                    self._free[i] = (off + nbytes, size - nbytes)
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

    def _insert_free(self, offset, size):
        """Insert a range into the free list, coalescing with neighbours."""
        i = bisect.bisect_left(self._free, (offset, 0))
        # Coalesce with predecessor.
        if i > 0:
            prev_off, prev_size = self._free[i - 1]
            if prev_off + prev_size == offset:
                offset, size = prev_off, prev_size + size
                del self._free[i - 1]
                i -= 1
        # Coalesce with successor.
        if i < len(self._free):
            next_off, next_size = self._free[i]
            if offset + size == next_off:
                size += next_size
                del self._free[i]
        # Coalesce with the frontier: return trailing space entirely.
        if offset + size == self._frontier:
            self._frontier = offset
        else:
            self._free.insert(i, (offset, size))

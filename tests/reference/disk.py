"""The composed charge path: a call per step of a touch.

How ``src/`` charged one extent read or write before the device did it in
one frame: ``SimulatedDisk.read`` / ``.write`` → ``check_live``,
``_check_range``, ``read_charges`` → ``_touch`` → ``_page_span``,
``_admit``, then ``io_time`` → ``transfer_time`` and ``record_read``.
``read``, ``write``, the two hooks and ``_touch`` are kept word for word,
restated over the cache's one LRU (``_pages``) where they also kept a
per-extent index beside it, so a device built from these classes is the
statement of what every charge, counter, clock tick and LRU move must
equal — ``==``, not ``approx`` — on a valid touch
(``tests/storage/test_charge_path.py``).  The one thing it is *not* the
oracle for is a touch refused for negative ``seeks``: the composed path
let the cache see the touch before ``io_time`` refused it.
``ComposedPageCache.invalidate_extent`` is the definition — drop every
resident key of the extent — that the indexed lookup in ``src/`` must
equal.  The composed caches charge through their own ``read_charges`` /
``write_charges``, which only the composed disks call: pair them with
``ComposedDisk`` / ``ComposedFaultyDisk``.

``HookPageCache`` is the step between: the device asked the cache for
the charge of every touch, and the cache served a one-page touch in its
own frame (two frames a cached touch).  ``SimulatedDisk`` now takes that
LRU step itself; the hooks are kept word for word as a second twin.
"""

from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultyDisk
from repro.storage.pagecache import PageCache


def page_span(page_size, extent, nbytes, offset):
    """Return the page indexes a touch of ``[offset, offset+nbytes)`` covers.

    The span is clipped to the extent; first and last pages may be
    partial.
    """
    end = min(offset + nbytes, extent.size)
    if end <= offset:
        return range(0)
    first = offset // page_size
    last = (end - 1) // page_size
    return range(first, last + 1)


def resident_by_extent(cache):
    """Return ``{extent_id: {page_index, ...}}`` for the resident pages."""
    by_extent = {}
    for ext_id, page_index in cache._pages:
        by_extent.setdefault(ext_id, set()).add(page_index)
    return by_extent


class ComposedPageCache(PageCache):
    """``PageCache`` with the ``_touch`` that started its fast paths at two pages."""

    def read_charges(self, extent, nbytes, seeks, offset=0):
        missed, total = self._touch(extent, nbytes, offset, is_read=True)
        if missed == 0:
            return 0.0, 0
        missed_bytes = min(missed * self.page_size, extent.size)
        return seeks, missed_bytes

    def write_charges(self, extent, nbytes, seeks, offset=0):
        missed, total = self._touch(extent, nbytes, offset, is_read=False)
        if total and missed == 0:
            return 0.0, nbytes
        return seeks, nbytes

    def invalidate_extent(self, extent):
        doomed = [key for key in self._pages if key[0] == extent.extent_id]
        for key in doomed:
            del self._pages[key]
        return len(doomed)

    def _page_span(self, extent, nbytes, offset):
        return page_span(self.page_size, extent, nbytes, offset)

    def _admit(self, key):
        while len(self._pages) >= self.capacity_pages:
            self._pages.popitem(last=False)
            self.evictions += 1
        self._pages[key] = None

    def _touch(self, extent, nbytes, offset, *, is_read):
        span = self._page_span(extent, nbytes, offset)
        k = len(span)
        if k > 1:
            ext_id = extent.extent_id
            pages = self._pages
            n_hits = sum((ext_id, page_index) in pages for page_index in span)
            if n_hits == k:
                for page_index in span:
                    pages.move_to_end((ext_id, page_index))
                self.hits += k
                if is_read:
                    self.read_hits += k
                else:
                    self.write_hits += k
                return 0, k
            if n_hits == 0 and k <= self.capacity_pages:
                n_evict = len(pages) + k - self.capacity_pages
                if n_evict > 0:
                    for _ in range(n_evict):
                        pages.popitem(last=False)
                    self.evictions += n_evict
                for page_index in span:
                    pages[(ext_id, page_index)] = None
                self.misses += k
                return k, k
        missed = 0
        for page_index in span:
            key = (extent.extent_id, page_index)
            if key in self._pages:
                self._pages.move_to_end(key)
                self.hits += 1
                if is_read:
                    self.read_hits += 1
                else:
                    self.write_hits += 1
            else:
                missed += 1
                self.misses += 1
                self._admit(key)
        return missed, len(span)


class HookPageCache(PageCache):
    """``PageCache`` with the hooks the device called for every touch."""

    def read_charges(self, extent, nbytes, seeks, offset=0):
        end = min(offset + nbytes, extent.size)
        if end <= offset:
            return 0.0, 0
        page_size = self.page_size
        first = offset // page_size
        last = (end - 1) // page_size
        if first != last:
            missed = self.touch_span(extent.extent_id, first, last, True)
            if missed == 0:
                return 0.0, 0
            return seeks, min(missed * page_size, extent.size)
        key = (extent.extent_id, first)
        pages = self._pages
        if key in pages:
            pages.move_to_end(key)
            self.hits += 1
            self.read_hits += 1
            return 0.0, 0
        self.misses += 1
        if len(pages) >= self.capacity_pages:
            pages.popitem(last=False)
            self.evictions += 1
        pages[key] = None
        return seeks, min(page_size, extent.size)

    def write_charges(self, extent, nbytes, seeks, offset=0):
        end = min(offset + nbytes, extent.size)
        if end <= offset:
            return seeks, nbytes
        page_size = self.page_size
        first = offset // page_size
        last = (end - 1) // page_size
        if first != last:
            if self.touch_span(extent.extent_id, first, last, False) == 0:
                return 0.0, nbytes
            return seeks, nbytes
        key = (extent.extent_id, first)
        pages = self._pages
        if key in pages:
            pages.move_to_end(key)
            self.hits += 1
            self.write_hits += 1
            return 0.0, nbytes
        self.misses += 1
        if len(pages) >= self.capacity_pages:
            pages.popitem(last=False)
            self.evictions += 1
        pages[key] = None
        return seeks, nbytes


class _ComposedCharges:
    """``SimulatedDisk.read`` / ``.write`` as a chain of calls."""

    def read(self, extent, nbytes=None, *, seeks=1, offset=0):
        extent.check_live()
        if nbytes is None:
            nbytes = extent.size
        self._check_range(extent, nbytes, offset, "read")
        if self.page_cache is not None:
            seeks, nbytes = self.page_cache.read_charges(
                extent, nbytes, seeks, offset
            )
        seconds = self.params.io_time(nbytes, seeks=seeks)
        self.stats.record_read(nbytes, seeks, seconds)
        self._clock += seconds
        return seconds

    def write(self, extent, nbytes=None, *, seeks=1, offset=0):
        extent.check_live()
        if nbytes is None:
            nbytes = extent.size
        self._check_range(extent, nbytes, offset, "write")
        if self.page_cache is not None:
            seeks, nbytes = self.page_cache.write_charges(
                extent, nbytes, seeks, offset
            )
        seconds = self.params.io_time(nbytes, seeks=seeks)
        self.stats.record_write(nbytes, seeks, seconds)
        self._clock += seconds
        return seconds

    @staticmethod
    def _check_range(extent, nbytes, offset, kind):
        if offset < 0 or not 0 <= nbytes or offset + nbytes > extent.size:
            raise ValueError(
                f"{kind} of {nbytes} bytes at offset {offset} outside "
                f"extent of {extent.size} bytes"
            )


class ComposedDisk(_ComposedCharges, SimulatedDisk):
    """A ``SimulatedDisk`` that charges the composed way."""


class ComposedFaultyDisk(FaultyDisk, _ComposedCharges, SimulatedDisk):
    """A ``FaultyDisk`` whose gate opens onto the composed charges."""

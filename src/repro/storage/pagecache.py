"""Trace-driven LRU page cache for the simulated disk.

The analytic :class:`~repro.storage.bufferpool.BufferPoolModel` predicts a
*memoryless* miss rate from the working-set size alone — it cannot see
locality, batching, or warm-up.  :class:`PageCache` replaces that formula
with the real thing: an LRU over fixed-size pages of live extents, driven by
the actual trace of reads and writes the indexes issue.  Plugged into
:class:`~repro.storage.disk.SimulatedDisk`, it makes the memory-pressure
effects behind the paper's Figures 5 and 10 *emergent* rather than assumed:
a Zipf query stream keeps hot buckets resident, a batch sweep warms the
pages the next request needs, and an index that outgrows the cache starts
paying seeks exactly where the authors' 96 MB DEC 3000 did.

Cost semantics (the trace-driven analogue of the analytic model, which
scales seeks by the miss rate):

* a **read** whose pages are all resident is memory-speed — it skips both
  the seek and the transfer;
* a partially resident read pays the caller's seek plus a page-granular
  transfer of the missing pages only;
* a **write** always pays its transfer (write-through: bytes must reach the
  platter), but skips the seek when every touched page is resident — the
  warm pool absorbs the positioning cost, matching how
  :meth:`BufferPoolModel.effective_seeks` discounts a warm working set.

:class:`~repro.storage.disk.SimulatedDisk` charges a touch in one frame:
a one-page touch (a bucket: nineteen in twenty) takes its LRU step there —
a hit is one ``move_to_end``, a miss evicts the oldest page if the cache
is full and inserts — and a span of two pages and up comes here, to
:meth:`PageCache.touch_span`.  The cache keeps the LRU, spans,
invalidation and the counters.

Pages are keyed by ``(extent_id, page_index)``.  Extent ids are unique for
the life of the process, and :meth:`SimulatedDisk.free` invalidates an
extent's pages, so a recycled disk offset can never produce a stale hit.
The LRU itself is the cache's only state: invalidation finds an extent's
pages from its size, or by one pass over the resident keys when that is
shorter — O(min(extent pages, cache pages)).

Under uniform-random touches over a fixed working set the cache's steady
miss rate converges to the analytic ``max(0, 1 − memory/working_set)`` —
property-tested in ``tests/storage/test_pagecache_equivalence.py`` — while
under skewed or sequential traces it captures what the formula cannot.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import repeat

from .extent import Extent

#: Default page size: 4 KiB, the classic OS/buffer-pool granule.
DEFAULT_PAGE_SIZE = 4096


@dataclass(frozen=True)
class PageCacheSnapshot:
    """Immutable point-in-time copy of the cache counters.

    Supports subtraction so callers can measure a window of activity the
    same way they do with :class:`~repro.storage.stats.IOSnapshot`.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    read_hits: int = 0
    write_hits: int = 0
    resident_pages: int = 0
    capacity_pages: int = 0

    def __sub__(self, other: "PageCacheSnapshot") -> "PageCacheSnapshot":
        return PageCacheSnapshot(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
            read_hits=self.read_hits - other.read_hits,
            write_hits=self.write_hits - other.write_hits,
            resident_pages=self.resident_pages,
            capacity_pages=self.capacity_pages,
        )

    @property
    def touches(self) -> int:
        """Return total page touches (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Return the fraction of page touches served from memory."""
        touches = self.touches
        return self.hits / touches if touches else 0.0

    @property
    def miss_rate(self) -> float:
        """Return the fraction of page touches that went to disk."""
        touches = self.touches
        return self.misses / touches if touches else 0.0


class PageCache:
    """An LRU cache of fixed-size pages of live extents.

    Args:
        capacity_bytes: Memory available for pages; rounded down to whole
            pages (at least one).
        page_size: Bytes per page.

    The cache never stores payload — like the rest of the storage layer it
    tracks *which* pages are resident, which is all the cost model needs.
    One ``OrderedDict`` of ``(extent_id, page_index)`` keys, oldest first,
    is all it keeps, so freeing an extent costs O(min(its pages, resident
    pages)); the counters are plain integers.
    """

    def __init__(
        self,
        capacity_bytes: float,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be > 0, got {capacity_bytes}"
            )
        if page_size <= 0:
            raise ValueError(f"page_size must be > 0, got {page_size}")
        self.page_size = page_size
        self.capacity_pages = max(1, int(capacity_bytes // page_size))
        #: LRU order: oldest first.  Values are unused (set-like).
        self._pages: OrderedDict[tuple[int, int], None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.read_hits = 0
        self.write_hits = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        """Return the number of pages currently cached."""
        return len(self._pages)

    @property
    def capacity_bytes(self) -> int:
        """Return the cache capacity in bytes (whole pages)."""
        return self.capacity_pages * self.page_size

    def snapshot(self) -> PageCacheSnapshot:
        """Return an immutable copy of the current counters."""
        return PageCacheSnapshot(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            read_hits=self.read_hits,
            write_hits=self.write_hits,
            resident_pages=self.resident_pages,
            capacity_pages=self.capacity_pages,
        )

    # ------------------------------------------------------------------
    # Spans and invalidation (called by SimulatedDisk)
    # ------------------------------------------------------------------

    def touch_span(
        self, ext_id: int, first: int, last: int, is_read: bool
    ) -> int:
        """Touch pages ``first..last`` (two or more); return how many missed.

        Every touched page ends up resident and most-recently-used;
        admission evicts LRU pages as needed.  Two span shapes skip the
        per-page loop:

        * **all resident** (a warm sweep) — bulk counter updates, with
          only the mandatory per-page ``move_to_end`` to keep LRU order
          exact;
        * **none resident** (a cold sweep that fits) — one arithmetic
          eviction count ``max(0, resident + k - capacity)``, a bulk
          pop of that many LRU victims, and one ordered bulk insert.

        Mixed spans — and cold spans larger than the whole cache, where
        later admissions must evict earlier pages of the *same* span —
        take the per-page loop, so counters, LRU order, and victim
        choice are those of touching the pages one by one in every case
        (property-tested against that definition in
        ``tests/storage/test_pagecache_kernel.py``).
        """
        pages = self._pages
        capacity = self.capacity_pages
        keys = list(zip(repeat(ext_id), range(first, last + 1)))
        k = len(keys)
        n_hits = sum(map(pages.__contains__, keys))
        if n_hits == 0 and k <= capacity:
            n_evict = len(pages) + k - capacity
            if n_evict > 0:
                for _ in range(n_evict):
                    pages.popitem(last=False)
                self.evictions += n_evict
            pages.update(zip(keys, repeat(None)))
            self.misses += k
            return k
        if n_hits == k:
            deque(map(pages.move_to_end, keys), 0)
        else:
            n_hits = 0
            for key in keys:
                if key in pages:
                    pages.move_to_end(key)
                    n_hits += 1
                else:
                    if len(pages) >= capacity:
                        pages.popitem(last=False)
                        self.evictions += 1
                    pages[key] = None
        self.hits += n_hits
        if is_read:
            self.read_hits += n_hits
        else:
            self.write_hits += n_hits
        self.misses += k - n_hits
        return k - n_hits

    def invalidate_extent(self, extent: Extent) -> int:
        """Drop every page of ``extent``; return how many were resident.

        Called when the extent is freed — dropped pages are not counted as
        evictions (nothing displaced them).  The extent's pages are looked
        up by index when there are no more of them than resident pages,
        else found by one pass over the resident keys: either way
        O(min(extent pages, cache pages)).
        """
        pages = self._pages
        ext_id = extent.extent_id
        n_pages = -(-extent.size // self.page_size)
        if n_pages <= len(pages):
            doomed = zip(repeat(ext_id), range(n_pages))
        else:
            doomed = [key for key in pages if key[0] == ext_id]
        resident = len(pages)
        for key in doomed:
            pages.pop(key, None)
        return resident - len(pages)

    def clear(self) -> None:
        """Empty the cache (counters are kept)."""
        self._pages.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PageCache({self.resident_pages}/{self.capacity_pages} pages "
            f"of {self.page_size}B, {self.hits} hits, {self.misses} misses)"
        )

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

Pages are keyed by ``(extent_id, page_index)``.  Extent ids are unique for
the life of the process, and :meth:`SimulatedDisk.free` invalidates an
extent's pages, so a recycled disk offset can never produce a stale hit.

Under uniform-random touches over a fixed working set the cache's steady
miss rate converges to the analytic ``max(0, 1 − memory/working_set)`` —
property-tested in ``tests/storage/test_pagecache_equivalence.py`` — while
under skewed or sequential traces it captures what the formula cannot.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

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
        #: Secondary index: extent_id -> resident page indexes, so freeing
        #: an extent invalidates in O(its pages), not O(cache size).
        self._by_extent: dict[int, set[int]] = {}
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

    def is_resident(self, extent: Extent, page_index: int) -> bool:
        """Return ``True`` if the given page of ``extent`` is cached."""
        return (extent.extent_id, page_index) in self._pages

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
    # Page accounting
    # ------------------------------------------------------------------

    def _touch(
        self, extent: Extent, nbytes: int, offset: int, *, is_read: bool
    ) -> tuple[int, int]:
        """Record a touch; return ``(missed_pages, total_pages)``.

        The touch covers the pages of ``[offset, offset + nbytes)``,
        clipped to the extent; first and last pages may be partial.
        Every touched page ends up resident and most-recently-used;
        admission evicts LRU pages as needed.

        The overwhelmingly common span shapes skip the per-page Python
        loop and every nested call:

        * **one page** (a bucket, nineteen touches in twenty) — a hit is
          one ``move_to_end``; a miss evicts while full, inserts and
          indexes the page, right here;
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
        end = min(offset + nbytes, extent.size)
        if end <= offset:
            return 0, 0
        page_size = self.page_size
        first = offset // page_size
        last = (end - 1) // page_size
        ext_id = extent.extent_id
        pages = self._pages
        if first == last:
            key = (ext_id, first)
            if key in pages:
                pages.move_to_end(key)
                self.hits += 1
                if is_read:
                    self.read_hits += 1
                else:
                    self.write_hits += 1
                return 0, 1
            # _admit and _forget, in this frame.
            self.misses += 1
            by_extent = self._by_extent
            capacity = self.capacity_pages
            while len(pages) >= capacity:
                victim_id, victim_page = pages.popitem(last=False)[0]
                owner = by_extent.get(victim_id)
                if owner is not None:
                    owner.discard(victim_page)
                    if not owner:
                        del by_extent[victim_id]
                self.evictions += 1
            pages[key] = None
            by_extent.setdefault(ext_id, set()).add(first)
            return 1, 1
        span = range(first, last + 1)
        k = last + 1 - first
        resident = self._by_extent.get(ext_id)
        n_hits = len(resident.intersection(span)) if resident else 0
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
                    victim, _unused = pages.popitem(last=False)
                    self._forget(victim)
                self.evictions += n_evict
            for page_index in span:
                pages[(ext_id, page_index)] = None
            self._by_extent.setdefault(ext_id, set()).update(span)
            self.misses += k
            return k, k
        missed = 0
        for page_index in span:
            key = (ext_id, page_index)
            if key in pages:
                pages.move_to_end(key)
                self.hits += 1
                if is_read:
                    self.read_hits += 1
                else:
                    self.write_hits += 1
            else:
                missed += 1
                self.misses += 1
                self._admit(key)
        return missed, k

    def _admit(self, key: tuple[int, int]) -> None:
        while len(self._pages) >= self.capacity_pages:
            victim, _ = self._pages.popitem(last=False)
            self._forget(victim)
            self.evictions += 1
        self._pages[key] = None
        self._by_extent.setdefault(key[0], set()).add(key[1])

    def _forget(self, key: tuple[int, int]) -> None:
        pages = self._by_extent.get(key[0])
        if pages is not None:
            pages.discard(key[1])
            if not pages:
                del self._by_extent[key[0]]

    # ------------------------------------------------------------------
    # Hooks (called by SimulatedDisk)
    # ------------------------------------------------------------------

    def read_charges(
        self, extent: Extent, nbytes: int, seeks: float, offset: int = 0
    ) -> tuple[float, int]:
        """Account a read; return the ``(seeks, bytes)`` still owed to disk.

        A fully resident read owes nothing; otherwise the caller's seeks
        are owed in full plus a page-granular transfer of the missing pages
        (clipped to the extent's end).
        """
        missed, total = self._touch(extent, nbytes, offset, is_read=True)
        if missed == 0:
            return 0.0, 0
        missed_bytes = min(missed * self.page_size, extent.size)
        return seeks, missed_bytes

    def write_charges(
        self, extent: Extent, nbytes: int, seeks: float, offset: int = 0
    ) -> tuple[float, int]:
        """Account a write; return the ``(seeks, bytes)`` owed to disk.

        Write-through: the transfer is always owed, but the seek is
        absorbed when every touched page was already resident.
        """
        missed, total = self._touch(extent, nbytes, offset, is_read=False)
        if total and missed == 0:
            return 0.0, nbytes
        return seeks, nbytes

    def invalidate_extent(self, extent: Extent) -> int:
        """Drop every page of ``extent``; return how many were resident.

        Called when the extent is freed — dropped pages are not counted as
        evictions (nothing displaced them).
        """
        pages = self._by_extent.pop(extent.extent_id, None)
        if not pages:
            return 0
        for page_index in pages:
            del self._pages[(extent.extent_id, page_index)]
        return len(pages)

    def clear(self) -> None:
        """Empty the cache (counters are kept)."""
        self._pages.clear()
        self._by_extent.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PageCache({self.resident_pages}/{self.capacity_pages} pages "
            f"of {self.page_size}B, {self.hits} hits, {self.misses} misses)"
        )

"""Tests for the trace-driven LRU page cache and its disk integration."""

import pytest

from repro.storage.cost import DiskParameters
from repro.storage.disk import SimulatedDisk
from repro.storage.pagecache import DEFAULT_PAGE_SIZE, PageCache, PageCacheSnapshot

PAGE = 64


def make_disk(capacity_pages: int = 4, page_size: int = PAGE) -> SimulatedDisk:
    cache = PageCache(capacity_pages * page_size, page_size)
    return SimulatedDisk(page_cache=cache)


class TestConstruction:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PageCache(0)
        with pytest.raises(ValueError):
            PageCache(-1)

    def test_rejects_nonpositive_page_size(self):
        with pytest.raises(ValueError):
            PageCache(4096, page_size=0)

    def test_capacity_rounds_down_to_whole_pages(self):
        cache = PageCache(3 * PAGE + PAGE // 2, page_size=PAGE)
        assert cache.capacity_pages == 3
        assert cache.capacity_bytes == 3 * PAGE

    def test_tiny_capacity_keeps_one_page(self):
        cache = PageCache(1, page_size=PAGE)
        assert cache.capacity_pages == 1

    def test_default_page_size(self):
        assert PageCache(1 << 20).page_size == DEFAULT_PAGE_SIZE


class TestReadCaching:
    def test_second_read_is_free(self):
        disk = make_disk()
        extent = disk.allocate(2 * PAGE)
        first = disk.read(extent)
        assert first > 0
        assert disk.read(extent) == 0.0
        assert disk.page_cache.hits == 2
        assert disk.page_cache.misses == 2

    def test_partial_residency_pays_seek_and_missed_pages(self):
        disk = make_disk(capacity_pages=8)
        extent = disk.allocate(4 * PAGE)
        disk.read(extent, PAGE)  # warm page 0 only
        before = disk.stats.snapshot()
        disk.read(extent)  # pages 1-3 missing
        delta = disk.stats.snapshot() - before
        assert delta.seeks == 1
        assert delta.bytes_read == 3 * PAGE

    def test_missed_transfer_clipped_to_extent(self):
        disk = make_disk()
        extent = disk.allocate(PAGE // 2)  # smaller than one page
        before = disk.stats.snapshot()
        disk.read(extent)
        delta = disk.stats.snapshot() - before
        assert delta.bytes_read == PAGE // 2

    def test_offsets_map_to_distinct_pages(self):
        disk = make_disk()
        extent = disk.allocate(4 * PAGE)
        disk.read(extent, PAGE, offset=0)
        assert disk.read(extent, PAGE, offset=2 * PAGE) > 0  # different page
        assert disk.read(extent, PAGE, offset=2 * PAGE) == 0.0

    def test_out_of_range_read_rejected(self):
        disk = make_disk()
        extent = disk.allocate(2 * PAGE)
        with pytest.raises(ValueError):
            disk.read(extent, PAGE, offset=2 * PAGE)
        with pytest.raises(ValueError):
            disk.read(extent, PAGE, offset=-1)


class TestWriteCaching:
    def test_write_is_write_through(self):
        disk = make_disk()
        extent = disk.allocate(2 * PAGE)
        disk.read(extent)  # make fully resident
        before = disk.stats.snapshot()
        disk.write(extent)
        delta = disk.stats.snapshot() - before
        assert delta.bytes_written == 2 * PAGE  # transfer always paid
        assert delta.seeks == 0  # seek absorbed by residency

    def test_cold_write_pays_seek(self):
        disk = make_disk()
        extent = disk.allocate(2 * PAGE)
        before = disk.stats.snapshot()
        disk.write(extent)
        delta = disk.stats.snapshot() - before
        assert delta.seeks == 1

    def test_write_installs_pages_for_later_reads(self):
        disk = make_disk()
        extent = disk.allocate(2 * PAGE)
        disk.write(extent)
        assert disk.read(extent) == 0.0


class TestEviction:
    def test_lru_evicts_oldest(self):
        cache = PageCache(2 * PAGE, page_size=PAGE)
        disk = SimulatedDisk(page_cache=cache)
        a = disk.allocate(PAGE)
        b = disk.allocate(PAGE)
        c = disk.allocate(PAGE)
        disk.read(a)
        disk.read(b)
        disk.read(a)  # refresh a; b is now LRU
        disk.read(c)  # evicts b
        assert cache.evictions == 1
        assert (a.extent_id, 0) in cache._pages
        assert (b.extent_id, 0) not in cache._pages
        assert (c.extent_id, 0) in cache._pages

    def test_resident_pages_never_exceed_capacity(self):
        cache = PageCache(3 * PAGE, page_size=PAGE)
        disk = SimulatedDisk(page_cache=cache)
        for _ in range(5):
            disk.read(disk.allocate(2 * PAGE))
        assert cache.resident_pages <= cache.capacity_pages


class TestInvalidation:
    def test_free_invalidates_pages(self):
        disk = make_disk()
        extent = disk.allocate(2 * PAGE)
        disk.read(extent)
        disk.free(extent)
        assert disk.page_cache.resident_pages == 0

    def test_recycled_offset_cannot_hit_stale_pages(self):
        disk = make_disk()
        extent = disk.allocate(2 * PAGE)
        disk.read(extent)
        disk.free(extent)
        again = disk.allocate(2 * PAGE)
        assert again.offset == extent.offset  # allocator reuses the hole
        assert disk.read(again) > 0

    def test_reallocate_invalidates_old_extent(self):
        disk = make_disk()
        extent = disk.allocate(2 * PAGE)
        disk.read(extent)
        disk.reallocate(extent, 4 * PAGE)
        assert disk.page_cache.resident_pages == 0

    def test_invalidate_is_not_an_eviction(self):
        disk = make_disk()
        extent = disk.allocate(2 * PAGE)
        disk.read(extent)
        disk.free(extent)
        assert disk.page_cache.evictions == 0

    def test_clear_keeps_counters(self):
        disk = make_disk()
        extent = disk.allocate(2 * PAGE)
        disk.read(extent)
        disk.page_cache.clear()
        assert disk.page_cache.resident_pages == 0
        assert disk.page_cache.misses == 2


class TestSnapshots:
    def test_snapshot_subtraction_windows_activity(self):
        disk = make_disk()
        extent = disk.allocate(2 * PAGE)
        disk.read(extent)
        before = disk.page_cache.snapshot()
        disk.read(extent)
        delta = disk.page_cache.snapshot() - before
        assert delta.hits == 2
        assert delta.misses == 0
        assert delta.hit_rate == 1.0

    def test_empty_snapshot_rates(self):
        snap = PageCacheSnapshot()
        assert snap.hit_rate == 0.0
        assert snap.miss_rate == 0.0
        assert snap.touches == 0

    def test_read_and_write_hits_split(self):
        disk = make_disk()
        extent = disk.allocate(PAGE)
        disk.read(extent)
        disk.read(extent)
        disk.write(extent, PAGE)
        snap = disk.page_cache.snapshot()
        assert snap.read_hits == 1
        assert snap.write_hits == 1


class TestEffectiveSeeks:
    def test_cache_disables_analytic_discount(self):
        from repro.storage.bufferpool import BufferPoolModel

        cache = PageCache(4 * PAGE, page_size=PAGE)
        disk = SimulatedDisk(
            buffer_pool=BufferPoolModel(memory_bytes=1 << 30),
            page_cache=cache,
        )
        # With the trace-driven cache attached, nominal seeks pass through
        # unscaled — the cache itself decides which touches are free.
        assert disk.effective_seeks(1.0, 100.0) == 1.0

    def test_cacheless_disk_unchanged(self):
        disk = SimulatedDisk()
        extent = disk.allocate(2 * PAGE)
        params = DiskParameters()
        assert disk.read(extent) == pytest.approx(
            params.io_time(2 * PAGE, seeks=1)
        )
        assert disk.read(extent) > 0  # no cache: every read pays

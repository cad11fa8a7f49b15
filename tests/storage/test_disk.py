"""Tests for the clocked simulated disk."""

import pytest

from repro.errors import ExtentError
from repro.storage.cost import MEGABYTE, DiskParameters
from repro.storage.disk import SimulatedDisk
from repro.storage.pagecache import PageCache, PageCacheSnapshot
from repro.storage.stats import IOSnapshot


@pytest.fixture
def fast_disk() -> SimulatedDisk:
    """A disk with round numbers: 10 ms seek, 1 MB/s transfer."""
    return SimulatedDisk(DiskParameters(seek_s=0.01, bandwidth_bps=MEGABYTE))


class TestClock:
    def test_read_advances_clock(self, fast_disk):
        ext = fast_disk.allocate(MEGABYTE)
        seconds = fast_disk.read(ext)
        assert seconds == pytest.approx(1.01)
        assert fast_disk.clock == pytest.approx(1.01)

    def test_write_advances_clock(self, fast_disk):
        ext = fast_disk.allocate(500_000)
        fast_disk.write(ext)
        assert fast_disk.clock == pytest.approx(0.51)

    def test_partial_read(self, fast_disk):
        ext = fast_disk.allocate(MEGABYTE)
        assert fast_disk.read(ext, 100_000) == pytest.approx(0.11)

    def test_read_beyond_extent_rejected(self, fast_disk):
        ext = fast_disk.allocate(100)
        with pytest.raises(ValueError):
            fast_disk.read(ext, 101)

    def test_zero_seek_streaming(self, fast_disk):
        ext = fast_disk.allocate(MEGABYTE)
        assert fast_disk.read(ext, seeks=0) == pytest.approx(1.0)

    def test_allocation_and_free_cost_nothing(self, fast_disk):
        ext = fast_disk.allocate(MEGABYTE)
        fast_disk.free(ext)
        assert fast_disk.clock == 0.0

    def test_advance(self, fast_disk):
        fast_disk.advance(3.5)
        assert fast_disk.clock == pytest.approx(3.5)
        with pytest.raises(ValueError):
            fast_disk.advance(-1)

    def test_stream_read_and_write(self, fast_disk):
        fast_disk.stream_read(MEGABYTE)
        fast_disk.stream_write(MEGABYTE)
        assert fast_disk.clock == pytest.approx(2.02)
        snap = fast_disk.snapshot()
        assert snap.bytes_read == MEGABYTE
        assert snap.bytes_written == MEGABYTE
        assert snap.seeks == 2


class TestSpace:
    def test_reallocate_allocates_before_freeing(self, fast_disk):
        ext = fast_disk.allocate(100)
        new = fast_disk.reallocate(ext, 200)
        # Peak saw both extents alive at once.
        assert fast_disk.high_water_bytes == 300
        assert fast_disk.live_bytes == 200
        assert new.size == 200
        assert not ext.live

    def test_reset_high_water(self, fast_disk):
        ext = fast_disk.allocate(100)
        fast_disk.free(ext)
        fast_disk.reset_high_water()
        assert fast_disk.high_water_bytes == 0

    def test_io_on_freed_extent_rejected(self, fast_disk):
        ext = fast_disk.allocate(100)
        fast_disk.free(ext)
        with pytest.raises(ExtentError):
            fast_disk.read(ext)


class TestStats:
    def test_snapshot_subtraction_isolates_window(self, fast_disk):
        ext = fast_disk.allocate(MEGABYTE)
        fast_disk.read(ext)
        before = fast_disk.snapshot()
        fast_disk.write(ext, 200_000)
        delta = fast_disk.snapshot() - before
        assert delta.reads == 0
        assert delta.writes == 1
        assert delta.bytes_written == 200_000
        assert delta.bytes_total == 200_000
        assert delta.busy_seconds == pytest.approx(0.21)


class TestRefusedTouch:
    """A touch the device refuses changes nothing — the cache included."""

    @staticmethod
    def state(disk):
        cache = disk.page_cache
        return (
            disk.clock,
            disk.snapshot(),
            cache.snapshot(),
            list(cache._pages),
            {k: set(v) for k, v in cache._by_extent.items()},
        )

    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_negative_seeks_leave_the_cache_cold(self, kind):
        disk = SimulatedDisk(page_cache=PageCache(8 * 4096))
        extent = disk.allocate(4096)
        touch = getattr(disk, kind)
        with pytest.raises(ValueError, match="seeks must be >= 0"):
            touch(extent, 100, seeks=-1)
        assert disk.page_cache.snapshot() == PageCacheSnapshot(capacity_pages=8)
        assert disk.snapshot() == IOSnapshot() and disk.clock == 0.0
        # The page was never transferred, so the next touch pays for it.
        assert touch(extent, 100) > 0.0
        assert disk.page_cache.misses == 1

    @pytest.mark.parametrize("kind", ["read", "write"])
    @pytest.mark.parametrize(
        "nbytes, seeks, offset",
        [(100, -0.5, 0), (-1, 1, 0), (100, 1, -1), (5000, 1, 4096), (8193, 1, 0)],
    )
    def test_refusal_is_all_or_nothing(self, kind, nbytes, seeks, offset):
        disk = SimulatedDisk(page_cache=PageCache(2 * 4096))
        extent = disk.allocate(8192)
        other = disk.allocate(4096)
        disk.read(extent, 8192)
        disk.write(other, 10)  # evicts extent's page 0: LRU order matters
        before = self.state(disk)
        with pytest.raises(ValueError):
            getattr(disk, kind)(extent, nbytes, seeks=seeks, offset=offset)
        assert self.state(disk) == before

    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_freed_extent_is_refused_before_anything_else(self, kind):
        disk = SimulatedDisk(page_cache=PageCache(2 * 4096))
        extent = disk.allocate(4096)
        disk.free(extent)
        before = self.state(disk)
        # Liveness outranks range outranks seeks, as when each was a call.
        with pytest.raises(ExtentError):
            getattr(disk, kind)(extent, 9999, seeks=-1, offset=-3)
        assert self.state(disk) == before

    def test_range_outranks_seeks(self, fast_disk):
        extent = fast_disk.allocate(100)
        with pytest.raises(ValueError, match="outside extent of 100 bytes"):
            fast_disk.read(extent, 101, seeks=-1)
        with pytest.raises(ValueError, match="outside extent of 100 bytes"):
            fast_disk.write(extent, 1, seeks=-1, offset=100)

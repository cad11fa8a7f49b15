"""Tests for the disk array."""

import pytest

from repro.storage.array import DiskArray, make_device
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultyDisk


class TestDiskArray:
    def test_create_builds_independent_devices(self):
        array = DiskArray.create(3)
        assert len(array) == 3
        array.devices[0].write(array.devices[0].allocate(1000), 1000)
        assert array.devices[0].clock > 0
        assert array.devices[1].clock == 0

    def test_aggregates_sum_over_devices(self):
        array = DiskArray.create(2)
        for device in array.devices:
            device.write(device.allocate(500), 500)
        io = array.io_snapshot()
        assert io.bytes_written == 1000
        assert array.total_clock == pytest.approx(sum(array.clocks()))
        assert array.live_bytes == 1000

    def test_high_water_is_summed_and_resettable(self):
        array = DiskArray.create(2)
        e0 = array.devices[0].allocate(800)
        array.devices[0].write(e0, 800)
        array.devices[0].free(e0)
        assert array.high_water_bytes >= 800
        array.reset_high_water()
        assert array.high_water_bytes == 0

    def test_page_caches_are_per_device(self):
        array = DiskArray.create(2, page_cache_bytes=1 << 16)
        assert all(d.page_cache is not None for d in array.devices)
        assert array.devices[0].page_cache is not array.devices[1].page_cache
        snap = array.cache_snapshot()
        assert snap is not None and snap.hits == 0

    def test_create_and_make_device_build_the_same_device(self):
        (device,) = DiskArray.create(
            1, page_cache_bytes=1 << 16, page_size=1024
        ).devices
        twin = make_device(page_cache_bytes=1 << 16, page_size=1024)
        assert device.params == twin.params
        assert device.page_cache.snapshot() == twin.page_cache.snapshot()
        assert make_device().page_cache is None

    def test_cache_snapshot_none_without_caches(self):
        assert DiskArray.create(2).cache_snapshot() is None

    def test_device_factory_allows_faulty_members(self):
        array = DiskArray.create(
            2,
            device_factory=lambda i: FaultyDisk() if i == 0 else SimulatedDisk(),
        )
        assert isinstance(array.devices[0], FaultyDisk)
        assert not isinstance(array.devices[1], FaultyDisk)

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError):
            DiskArray([])

    def test_check_invariants_covers_all_devices(self):
        array = DiskArray.create(2)
        for device in array.devices:
            device.write(device.allocate(100), 100)
        array.check_invariants()

"""A disk array: ``k`` independent simulated devices behind one facade.

The paper's availability argument — maintenance touches one constituent at
a time, so the other ``n - 1`` stay queryable — only becomes *measurable*
when constituents live on separate devices with separate clocks.
:class:`DiskArray` provides that substrate: ``k``
:class:`~repro.storage.disk.SimulatedDisk` (or
:class:`~repro.storage.faults.FaultyDisk`) devices, each with its own
allocator, I/O counters, optional page cache, and clock.

The array itself never charges I/O and places nothing: a plan executor
(:class:`~repro.core.executor.PlanExecutor`) runs on a span of devices
and rotates its index creations over them, and every other op reads and
writes wherever its index lives, so every byte lands on exactly one
device's counters.  Aggregate views (live bytes, high-water marks, summed
I/O and cache snapshots) exist so the day-level metrics of
:mod:`repro.sim` keep their single-disk shape.

With ``k == 1`` the array degenerates to exactly one
:class:`SimulatedDisk` — the serialized driver's world — which is what the
scheduler's equivalence guarantee rests on.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .cost import DiskParameters
from .disk import SimulatedDisk
from .pagecache import PageCache, PageCacheSnapshot
from .stats import IOSnapshot


def make_device(
    params: DiskParameters | None = None,
    page_cache_bytes: int | None = None,
    page_size: int | None = None,
) -> SimulatedDisk:
    """Return a fresh device, with its own LRU page cache of
    ``page_cache_bytes`` (pages of ``page_size``) when one is asked for."""
    cache = None
    if page_cache_bytes is not None:
        cache = (
            PageCache(page_cache_bytes, page_size)
            if page_size is not None
            else PageCache(page_cache_bytes)
        )
    return SimulatedDisk(params, page_cache=cache)


def _sum_io(snapshots: Sequence[IOSnapshot]) -> IOSnapshot:
    """Componentwise sum of per-device I/O snapshots."""
    return IOSnapshot(
        seeks=sum(s.seeks for s in snapshots),
        bytes_read=sum(s.bytes_read for s in snapshots),
        bytes_written=sum(s.bytes_written for s in snapshots),
        reads=sum(s.reads for s in snapshots),
        writes=sum(s.writes for s in snapshots),
        busy_seconds=sum(s.busy_seconds for s in snapshots),
    )


def _sum_cache(snapshots: Sequence[PageCacheSnapshot]) -> PageCacheSnapshot:
    """Componentwise sum of per-device page-cache snapshots."""
    return PageCacheSnapshot(
        hits=sum(s.hits for s in snapshots),
        misses=sum(s.misses for s in snapshots),
        evictions=sum(s.evictions for s in snapshots),
        read_hits=sum(s.read_hits for s in snapshots),
        write_hits=sum(s.write_hits for s in snapshots),
        resident_pages=sum(s.resident_pages for s in snapshots),
        capacity_pages=sum(s.capacity_pages for s in snapshots),
    )


class DiskArray:
    """``k`` simulated devices, in device-index order.

    Mixed arrays (some :class:`~repro.storage.faults.FaultyDisk`, some
    plain) are allowed — fault injection stays per-device.
    """

    def __init__(self, devices: Sequence[SimulatedDisk]) -> None:
        if not devices:
            raise ValueError("need at least one device")
        self.devices: list[SimulatedDisk] = list(devices)

    @classmethod
    def create(
        cls,
        n_devices: int,
        *,
        params: DiskParameters | None = None,
        page_cache_bytes: int | None = None,
        page_size: int | None = None,
        device_factory: Callable[[int], SimulatedDisk] | None = None,
    ) -> "DiskArray":
        """Build a homogeneous array of ``n_devices`` fresh devices.

        ``page_cache_bytes`` attaches an independent LRU page cache of
        that capacity to *each* device (caches are per-device hardware).
        ``device_factory`` overrides device construction entirely — the
        hook for fault-injected members.
        """
        make = device_factory or (
            lambda _: make_device(params, page_cache_bytes, page_size)
        )
        return cls([make(i) for i in range(n_devices)])

    def __len__(self) -> int:
        return len(self.devices)

    def add_device(self, device: SimulatedDisk) -> int:
        """Append ``device`` to the array; return its device index.

        Used to provision fresh spares for a rebuilt or staged replica;
        existing devices keep their indexes.  Devices are never removed:
        one whose replica retired keeps its clock and counters for the
        run's aggregate accounting.
        """
        self.devices.append(device)
        return len(self.devices) - 1

    # ------------------------------------------------------------------
    # Aggregate clocks and counters
    # ------------------------------------------------------------------

    def clocks(self) -> list[float]:
        """Return every device's clock, in device order."""
        return [d.clock for d in self.devices]

    @property
    def total_clock(self) -> float:
        """Return the sum of all device clocks (serial-equivalent time).

        Read on every served call, so a one-device array answers without
        building a generator.
        """
        devices = self.devices
        if len(devices) == 1:
            return devices[0].clock
        return sum(d.clock for d in devices)

    def io_snapshot(self) -> IOSnapshot:
        """Return the array-wide sum of the devices' I/O counters."""
        return _sum_io([d.stats.snapshot() for d in self.devices])

    def cache_snapshot(self) -> PageCacheSnapshot | None:
        """Return the summed page-cache counters (``None`` if no caches)."""
        snaps = [
            d.page_cache.snapshot()
            for d in self.devices
            if d.page_cache is not None
        ]
        if not snaps:
            return None
        return _sum_cache(snaps)

    # ------------------------------------------------------------------
    # Space
    # ------------------------------------------------------------------

    @property
    def live_bytes(self) -> int:
        """Return live bytes across the whole array."""
        return sum(d.live_bytes for d in self.devices)

    @property
    def high_water_bytes(self) -> int:
        """Return the summed per-device high-water marks.

        Per-device peaks need not be simultaneous, so this is an upper
        bound on the true array-wide peak.
        """
        return sum(d.high_water_bytes for d in self.devices)

    def reset_high_water(self) -> None:
        """Restart peak-space tracking on every device."""
        for d in self.devices:
            d.reset_high_water()

    def check_invariants(self) -> None:
        """Check every device's allocator invariants."""
        for d in self.devices:
            d.check_invariants()

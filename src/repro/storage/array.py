"""A disk array: ``k`` independent simulated devices behind one facade.

The paper's availability argument — maintenance touches one constituent at
a time, so the other ``n - 1`` stay queryable — only becomes *measurable*
when constituents live on separate devices with separate clocks.
:class:`DiskArray` provides that substrate: ``k``
:class:`~repro.storage.disk.SimulatedDisk` (or
:class:`~repro.storage.faults.FaultyDisk`) devices, each with its own
allocator, I/O counters, optional page cache, and clock, plus a
:class:`Placement` policy mapping index names to devices.

The array itself never charges I/O: callers obtain the device for a
binding via :meth:`disk_for` and do their reads/writes there, so every
byte lands on exactly one device's counters.  Aggregate views (live
bytes, high-water marks, summed I/O and cache snapshots) exist so the
day-level metrics of :mod:`repro.sim` keep their single-disk shape.

With ``k == 1`` the array degenerates to exactly one
:class:`SimulatedDisk` — the serialized driver's world — which is what the
scheduler's equivalence guarantee rests on.
"""

from __future__ import annotations

from typing import Callable, Sequence
from zlib import crc32

from .cost import DiskParameters
from .disk import SimulatedDisk
from .pagecache import PageCache, PageCacheSnapshot
from .stats import IOSnapshot


class Placement:
    """Maps binding names (``I1``, ``Temp`` ...) to device indexes.

    Strategies:

    * ``round_robin`` (default) — the first distinct name seen goes to
      device 0, the next to device 1, and so on, wrapping.  Deterministic
      given the name arrival order, and spreads ``I1..In`` over distinct
      devices whenever ``k >= n`` — the layout the paper's Section 8
      anticipates.
    * ``hash`` — stable CRC32 of the name, independent of arrival order.
    * ``pinned`` — an explicit ``{name: device}`` map; unlisted names fall
      back to round-robin.
    """

    STRATEGIES = ("round_robin", "hash", "pinned")

    def __init__(
        self,
        n_devices: int,
        strategy: str = "round_robin",
        pinned: dict[str, int] | None = None,
    ) -> None:
        if n_devices < 1:
            raise ValueError(f"need at least one device, got {n_devices}")
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"unknown placement strategy {strategy!r}; "
                f"known: {', '.join(self.STRATEGIES)}"
            )
        self.n_devices = n_devices
        self.strategy = strategy
        self.pinned = dict(pinned or {})
        for name, device in self.pinned.items():
            if not 0 <= device < n_devices:
                raise ValueError(
                    f"pinned device {device} for {name!r} outside "
                    f"[0, {n_devices})"
                )
        self._assigned: dict[str, int] = {}

    def device_index(self, name: str) -> int:
        """Return the device hosting ``name``, assigning on first sight."""
        if name in self.pinned:
            return self.pinned[name]
        if self.strategy == "hash":
            return crc32(name.encode("utf-8")) % self.n_devices
        if name not in self._assigned:
            self._assigned[name] = len(self._assigned) % self.n_devices
        return self._assigned[name]

    def assignments(self) -> dict[str, int]:
        """Return the names placed so far (pinned entries included)."""
        out = dict(self._assigned)
        out.update(self.pinned)
        return out


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
    """``k`` simulated devices plus the placement policy over them.

    Args:
        devices: The member devices, in device-index order.  Mixed arrays
            (some :class:`~repro.storage.faults.FaultyDisk`, some plain)
            are allowed — fault injection stays per-device.
        placement: Name-to-device policy; defaults to round-robin over
            ``len(devices)``.
    """

    def __init__(
        self,
        devices: Sequence[SimulatedDisk],
        placement: Placement | None = None,
    ) -> None:
        if not devices:
            raise ValueError("need at least one device")
        self.devices: list[SimulatedDisk] = list(devices)
        self.drained: set[int] = set()
        self.placement = placement or Placement(len(self.devices))
        if self.placement.n_devices != len(self.devices):
            raise ValueError(
                f"placement is over {self.placement.n_devices} devices, "
                f"array has {len(self.devices)}"
            )

    @classmethod
    def create(
        cls,
        n_devices: int,
        *,
        params: DiskParameters | None = None,
        page_cache_bytes: int | None = None,
        page_size: int | None = None,
        strategy: str = "round_robin",
        pinned: dict[str, int] | None = None,
        device_factory: Callable[[int], SimulatedDisk] | None = None,
    ) -> "DiskArray":
        """Build a homogeneous array of ``n_devices`` fresh devices.

        ``page_cache_bytes`` attaches an independent LRU page cache of
        that capacity to *each* device (caches are per-device hardware).
        ``device_factory`` overrides device construction entirely — the
        hook for fault-injected members.
        """
        if device_factory is None:
            def device_factory(_: int) -> SimulatedDisk:
                cache = None
                if page_cache_bytes is not None:
                    cache = (
                        PageCache(page_cache_bytes, page_size)
                        if page_size is not None
                        else PageCache(page_cache_bytes)
                    )
                return SimulatedDisk(params, page_cache=cache)
        devices = [device_factory(i) for i in range(n_devices)]
        return cls(devices, Placement(n_devices, strategy, pinned))

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.devices)

    def device_index(self, name: str) -> int:
        """Return the device index hosting binding ``name``."""
        return self.placement.device_index(name)

    def add_device(self, device: SimulatedDisk) -> int:
        """Append ``device`` to the array; return its device index.

        Used by the cluster's self-healing layer to provision a fresh
        spare for a replica rebuild.  Existing placements are unaffected
        (round-robin assignments already made keep their devices); the
        new device simply becomes addressable.
        """
        self.devices.append(device)
        self.placement.n_devices = len(self.devices)
        return len(self.devices) - 1

    def drain_device(self, index: int) -> None:
        """Mark device ``index`` drained — retired from active service.

        Devices are never removed from the array (indexes are stable ids
        that replicas and metrics reference), so retiring one is a flag:
        the caller is responsible for having moved or dropped its data
        first (the elastic engine drops the old shard's indexes before
        draining its devices).  Drained devices keep their clocks and
        counters for the run's aggregate accounting.
        """
        if not 0 <= index < len(self.devices):
            raise ValueError(
                f"device index {index} outside [0, {len(self.devices)})"
            )
        self.drained.add(index)

    def is_drained(self, index: int) -> bool:
        """Return whether device ``index`` has been drained."""
        return index in self.drained

    def disk_for(self, name: str) -> SimulatedDisk:
        """Return the device hosting binding ``name``."""
        return self.devices[self.placement.device_index(name)]

    # ------------------------------------------------------------------
    # Aggregate clocks and counters
    # ------------------------------------------------------------------

    def clocks(self) -> list[float]:
        """Return every device's clock, in device order."""
        return [d.clock for d in self.devices]

    @property
    def total_clock(self) -> float:
        """Return the sum of all device clocks (serial-equivalent time)."""
        return sum(d.clock for d in self.devices)

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
        bound on the true array-wide peak — the same conservative measure
        :class:`~repro.sim.multidisk_sim.MultiDiskReport` reports.
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

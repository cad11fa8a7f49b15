"""Measured multi-disk execution (the paper's Section-8 future work).

This module runs plans on *actual separate simulated disks* (the analytic
closed-form model that once lived in ``repro.extensions.multidisk`` has
been removed in its favour): each constituent (and each temporary) lives on the device
its name is placed on, every byte is charged to that device, and a day's
elapsed maintenance time is the busiest device's delta — ops on different
devices overlap, contention on the same device serialises, exactly the
behaviour the paper anticipates from "building new constituent indices on
separate disks".

The array mechanics live in :class:`~repro.storage.array.DiskArray` +
:class:`~repro.sim.scheduler.ArrayPlanExecutor`, the one multi-device code
path; this module places indexes by name and keeps a day-at-a-time API.
The cluster's day loop runs the same executor for a replica that spans
devices (``ClusterConfig(devices_per_replica=d)``), rotating its index
creations over them and serving queries beside the maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.executor import ExecutionReport
from ..core.ops import Op
from ..core.records import RecordStore
from ..core.wave import WaveIndex
from ..errors import ReproError
from ..index.config import IndexConfig
from ..index.updates import UpdateTechnique
from ..storage.array import DiskArray
from ..storage.cost import DiskParameters
from ..storage.disk import SimulatedDisk
from .scheduler import ArrayPlanExecutor


@dataclass
class MultiDiskReport:
    """Outcome of one day's plan on a disk array."""

    serial: ExecutionReport = field(default_factory=ExecutionReport)
    per_disk_busy_s: list[float] = field(default_factory=list)

    @property
    def elapsed_seconds(self) -> float:
        """Return the array's elapsed time: the busiest device's work."""
        return max(self.per_disk_busy_s, default=0.0)

    @property
    def serial_seconds(self) -> float:
        """Return single-disk-equivalent time: all devices' work summed."""
        return sum(self.per_disk_busy_s)

    @property
    def speedup(self) -> float:
        """Return serial over elapsed (1.0 for an idle or one-op day)."""
        if self.elapsed_seconds == 0.0:
            return 1.0
        return self.serial_seconds / self.elapsed_seconds


class MultiDiskExecutor(ArrayPlanExecutor):
    """A plan executor spreading bindings across a disk array.

    Index placement is the array's round-robin rule: the first distinct
    target name seen goes to disk 0, the next to disk 1, and so on — so
    ``I1..In`` land on distinct devices whenever ``n_disks >= n``.

    Shadow copies are created on the *same* device as the index they
    shadow (the swap must be local); temporaries follow the same placement
    rule as constituents.
    """

    def __init__(
        self,
        wave: WaveIndex,
        store: RecordStore,
        technique: UpdateTechnique = UpdateTechnique.SIMPLE_SHADOW,
        *,
        disks: list[SimulatedDisk],
    ) -> None:
        if not disks:
            raise ReproError("need at least one disk")
        super().__init__(wave, store, technique, array=DiskArray(list(disks)))

    @property
    def disks(self) -> list[SimulatedDisk]:
        """Return the array's devices, in device-index order."""
        return self.array.devices

    @classmethod
    def create(
        cls,
        store: RecordStore,
        n_indexes: int,
        n_disks: int,
        *,
        technique: UpdateTechnique = UpdateTechnique.SIMPLE_SHADOW,
        index_config: IndexConfig | None = None,
        disk_params: DiskParameters | None = None,
    ) -> "MultiDiskExecutor":
        """Build a wave index over a fresh array of ``n_disks`` devices."""
        disks = [SimulatedDisk(disk_params) for _ in range(n_disks)]
        wave = WaveIndex(disks[0], index_config or IndexConfig(), n_indexes)
        return cls(wave, store, technique, disks=disks)

    # ------------------------------------------------------------------
    # Execution with per-device accounting
    # ------------------------------------------------------------------

    def execute_parallel(self, plan: list[Op]) -> MultiDiskReport:
        """Run ``plan``; return per-device busy time and the elapsed max."""
        before = self.array.clocks()
        report = MultiDiskReport(serial=self.execute(plan))
        report.per_disk_busy_s = [
            clock - start for clock, start in zip(self.array.clocks(), before)
        ]
        return report

    @property
    def live_bytes(self) -> int:
        """Return live bytes across the whole array."""
        return self.array.live_bytes

    def check_invariants(self) -> None:
        """Check every device's allocator."""
        self.array.check_invariants()

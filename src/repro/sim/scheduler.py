"""Timeline pieces of the cluster's day loop.

The paper's Section-3 argument for wave indexes is *availability*:
maintenance touches one constituent at a time, so the other ``n - 1``
stay queryable while reorganization runs "offline".  The day loop
(:meth:`repro.cluster.sim.ClusterSimulation.turn` plus its simulated
serving pass) measures that claim on a shared timeline.  This module
holds what it lays on that timeline:

* :class:`OverlapPolicy` — whether a query that needs a constituent an
  in-place op is mutating **waits** for the op or **degrades**, skipping
  the constituent and reporting the lost days;
* :class:`OpInterval` — one executed op, ``[start, end)`` on the
  timeline, with the devices it charged and whether it blocks readers;
* :class:`ArrayPlanExecutor` — a plan executor whose indexes live on
  several devices of a :class:`~repro.storage.array.DiskArray`: a replica
  that spans devices rotates its index creations over them, so a
  REINDEX-family rebuild streams to a device the serving constituents do
  not occupy (the paper's "build new constituent indices on separate
  disks"), and :mod:`repro.sim.multidisk_sim` places them by name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.executor import ExecutionReport, PlanExecutor
from ..core.ops import Op, UpdateOp
from ..core.records import RecordStore
from ..core.wave import WaveIndex
from ..index.updates import UpdateTechnique
from ..storage.array import DiskArray


class OverlapPolicy(enum.Enum):
    """What a query does when a constituent it needs is mid-mutation."""

    #: Wait until the blocking op finishes (full answers, higher tail).
    WAIT = "wait"
    #: Skip the blocked constituent and answer from the surviving window,
    #: reporting the lost days (lower tail, partial answers).
    DEGRADE = "degrade"


@dataclass(frozen=True)
class OpInterval:
    """One executed maintenance op laid on the day's shared timeline.

    ``devices`` are the array indexes the op charged time to.
    """

    op: Op
    target: str
    devices: tuple[int, ...]
    start: float
    end: float
    blocking: bool


class ArrayPlanExecutor(PlanExecutor):
    """A plan executor placing index creations across a disk array.

    By default a creation (Build/CreateEmpty/Copy target) lands where the
    array's :class:`~repro.storage.array.Placement` puts its name;
    ``rotate_creations`` sends each to the next device in turn regardless
    of name, which is what isolates REINDEX-family rebuilds from the
    serving constituents.  All other ops read/write wherever their index
    physically lives (``index.disk``), so per-device accounting follows
    the bytes.
    """

    def __init__(
        self,
        wave: WaveIndex,
        store: RecordStore,
        technique: UpdateTechnique = UpdateTechnique.SIMPLE_SHADOW,
        *,
        array: DiskArray,
        rotate_creations: bool = False,
    ) -> None:
        super().__init__(wave, store, technique)
        self.array = array
        self.rotate_creations = rotate_creations
        self._next_creation_device = 0

    def _disk_for(self, target: str):
        if self.rotate_creations:
            device = self._next_creation_device
            self._next_creation_device = (device + 1) % len(self.array)
            return self.array.devices[device]
        return self.array.disk_for(target)

    def execute(self, plan: list[Op]) -> ExecutionReport:
        """Run ``plan``; peak space is the array-wide high-water sum."""
        report = ExecutionReport()
        self.array.reset_high_water()
        for op in plan:
            self.execute_op(op, report)
        report.peak_bytes = self.array.high_water_bytes
        return report

    def execute_op(self, op: Op, report: ExecutionReport) -> None:
        """Run one op, charging its time across the array's clocks.

        Fault gating happens on the device hosting the op's target, so a
        :class:`~repro.storage.faults.FaultyDisk` member injects its
        faults only into ops (and queries) that actually touch it.
        """
        target = getattr(op, "target", None)
        bound = self.wave.bindings.get(target) if target is not None else None
        if bound is not None:
            device = bound.disk
        elif target is not None:
            device = self.array.disk_for(target)
        else:
            device = self.disk
        injector = getattr(device, "injector", None)
        if injector is not None:
            injector.before_op()
        before = self.array.total_clock
        if isinstance(op, UpdateOp):
            self._apply_update(op, report)
        else:
            self._apply(op)
            report.seconds.add(op.phase, self.array.total_clock - before)
        report.ops_executed += 1
        if injector is not None:
            injector.note_op_completed()

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
  timeline, with the devices it charged and whether it blocks readers.

A replica that spans devices (``ClusterConfig(devices_per_replica=d)``)
runs the one plan executor, :class:`~repro.core.executor.PlanExecutor`,
on a ``d``-device span: it rotates its index creations over them, so a
REINDEX-family rebuild streams to a device the serving constituents do
not occupy (the paper's "build new constituent indices on separate
disks").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.ops import Op
from ..storage.disk import SimulatedDisk


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

    ``devices`` are the devices of the replica's span the op charged
    time to.
    """

    op: Op
    target: str
    devices: tuple[SimulatedDisk, ...]
    start: float
    end: float
    blocking: bool

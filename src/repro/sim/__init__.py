"""Measured simulation: run schemes on the real substrate, day by day.

The day loop itself is :class:`repro.cluster.ClusterSimulation`'s
(``turn(day)`` plus a simulated serving pass); :func:`run_simulation` is
its one-shard, one-device configuration, and :mod:`.scheduler` holds the
timeline pieces it lays maintenance and queries on.
"""

from .crashmatrix import CrashCell, CrashMatrixResult, run_crash_matrix
from .driver import run_simulation
from .latency import (
    DAY_SECONDS,
    BusyInterval,
    LatencyStats,
    maintenance_timeline,
    simulate_query_latency,
)
from .metrics import DayMetrics, SimulationResult
from .querygen import (
    DriftingWorkload,
    ProbeUnit,
    QueryWorkload,
    ScanUnit,
    WorkloadPhase,
    uniform_key_picker,
    zipf_value_picker,
)
from .scheduler import OverlapPolicy


def run_cluster_simulation(*args, **kwargs):
    """Run a sharded cluster simulation (see :mod:`repro.cluster.sim`).

    Thin re-export kept lazy because :mod:`repro.cluster` builds on this
    package (importing it at module scope would be circular).
    """
    from ..cluster.sim import run_cluster_simulation as _run

    return _run(*args, **kwargs)


__all__ = [
    "BusyInterval",
    "CrashCell",
    "CrashMatrixResult",
    "run_crash_matrix",
    "DAY_SECONDS",
    "DriftingWorkload",
    "WorkloadPhase",
    "DayMetrics",
    "LatencyStats",
    "maintenance_timeline",
    "simulate_query_latency",
    "OverlapPolicy",
    "ProbeUnit",
    "QueryWorkload",
    "ScanUnit",
    "SimulationResult",
    "run_cluster_simulation",
    "run_simulation",
    "uniform_key_picker",
    "zipf_value_picker",
]

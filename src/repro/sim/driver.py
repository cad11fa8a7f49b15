"""Measured simulation of one scheme on one device.

Runs a maintenance scheme day by day against the *real* substrate — actual
constituent indexes on the simulated disk — measuring what the analytic
model only predicts: per-day maintenance seconds by phase, space peaks, and
(optionally) a query stream's cost.  The two paths execute the same plans,
so the run doubles as the cross-validation harness for the cost model
and as the engine behind the substrate-measured experiments (Figure 10's
measured variant, Figure 11).

The run is the cluster's day loop at ``k = 1, r = 1``, lockstep: one
store, one device, maintenance from time zero, every query served after
it (:class:`~repro.cluster.sim.ClusterSimulation`).
"""

from __future__ import annotations

from typing import Callable

from ..core.records import RecordStore
from ..core.schemes.base import WaveScheme
from ..index.config import IndexConfig
from ..index.updates import UpdateTechnique
from ..storage.bufferpool import BufferPoolModel
from ..storage.cost import DiskParameters
from ..storage.disk import SimulatedDisk
from ..storage.pagecache import PageCache
from .metrics import SimulationResult
from .querygen import QueryWorkload


def run_simulation(
    scheme_factory: Callable[[], WaveScheme],
    store: RecordStore,
    *,
    last_day: int,
    technique: UpdateTechnique = UpdateTechnique.SIMPLE_SHADOW,
    index_config: IndexConfig | None = None,
    disk_params: DiskParameters | None = None,
    queries: QueryWorkload | None = None,
    buffer_pool: BufferPoolModel | None = None,
    page_cache: PageCache | None = None,
) -> SimulationResult:
    """Run start plus transitions through ``last_day``; return the metrics.

    ``buffer_pool`` and ``page_cache`` attach to the one device.
    """
    # Imported here: repro.cluster builds on this package.
    from ..cluster.sim import ClusterConfig, ClusterSimulation

    sim = ClusterSimulation(
        scheme_factory,
        store,
        technique=technique,
        index_config=index_config,
        disk_params=disk_params,
        queries=queries,
        cluster=ClusterConfig(n_shards=1, maintenance="lockstep"),
        device_factory=lambda _: SimulatedDisk(
            disk_params, buffer_pool, page_cache
        ),
    )
    return sim.run(last_day).shard_results[0]

"""Build a ready-to-serve demo cluster for the frontend.

``repro serve``, ``repro loadgen --serve-inline``, and the saturation
bench all need the same thing: a sharded cluster whose wave indexes are
already built so the coordinator can answer probes and scans
immediately.  This module runs a seeded
:class:`~repro.cluster.sim.ClusterSimulation` (no query stream — just
the daily maintenance that builds the indexes) and hands back the live
simulation, whose :attr:`coordinator` the frontend serves.

Everything is deterministic given the config, so two processes built
from the same seed answer identically — the property the shed/queue
equivalence tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import ClusterConfig, ClusterSimulation
from ..core.schemes import scheme_by_name
from ..errors import FrontendError
from ..workloads.keys import build_int_store


@dataclass(frozen=True)
class DemoClusterConfig:
    """Shape of the cluster the frontend serves.

    The defaults build quickly (well under a second) while leaving a
    window wide enough that probes and scans do real multi-constituent
    work.
    """

    window: int = 5
    n_indexes: int = 2
    scheme: str = "REINDEX"
    n_shards: int = 2
    replication: int = 1
    domain: int = 400
    records_per_day: int = 16
    record_bytes: int = 64
    #: Days simulated past the initial build (0 = serve right after the
    #: window fills).
    extra_days: int = 2
    seed: int = 7

    def __post_init__(self) -> None:
        if self.domain < 1:
            raise FrontendError(f"domain must be >= 1, got {self.domain}")
        if self.records_per_day < 1:
            raise FrontendError(
                f"records_per_day must be >= 1, got {self.records_per_day}"
            )
        if self.extra_days < 0:
            raise FrontendError(
                f"extra_days must be >= 0, got {self.extra_days}"
            )
        scheme_by_name(self.scheme)  # raises KeyError on unknowns

    @property
    def last_day(self) -> int:
        """Return the final simulated (and freshest servable) day."""
        return self.window + self.extra_days

    @property
    def oldest_day(self) -> int:
        """Return the oldest day still inside the serving window."""
        return self.last_day - self.window + 1


def build_demo_cluster(
    config: DemoClusterConfig | None = None,
) -> ClusterSimulation:
    """Build the cluster and run maintenance through ``last_day``.

    Returns the live simulation; serve queries through its
    ``.coordinator``.
    """
    config = config or DemoClusterConfig()
    scheme_cls = scheme_by_name(config.scheme)
    sim = ClusterSimulation(
        lambda: scheme_cls(config.window, config.n_indexes),
        build_int_store(
            config.seed,
            config.last_day,
            config.records_per_day,
            config.domain,
            config.record_bytes,
        ),
        cluster=ClusterConfig(
            n_shards=config.n_shards,
            replication=config.replication,
        ),
    )
    sim.run(config.last_day)
    return sim


__all__ = ["DemoClusterConfig", "build_demo_cluster"]

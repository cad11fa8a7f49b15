"""Sharded wave-index cluster: partitioned shards, scatter-gather
serving, staggered maintenance, and replica failover.

The paper scales one wave index in *time* (spread window maintenance
over ``n`` constituents); this package scales it in *space*: the key
space is split across ``k`` shards, each running its own wave index on
its own device of a :class:`~repro.storage.array.DiskArray`, optionally
replicated ``r`` ways.  The topology itself can evolve online — shard
splits and merges under traffic via :mod:`repro.cluster.elastic`.  See
:mod:`repro.cluster.sim` for the timeline model and ``DESIGN.md`` for
the architecture discussion.
"""

from ..core.staged import ChangeAborted
from .coordinator import (
    ClusterBatchResult,
    ClusterCoordinator,
    ClusterCostSummary,
)
from .elastic import (
    Autoscaler,
    AutoscalerDecision,
    ElasticConfig,
    Merge,
    ReshardReport,
    ScaleAction,
    Split,
    reshard_change,
)
from .partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    SlotHashPartitioner,
    make_partitioner,
    partition_store,
)
from .rebalance import (
    RebalanceReport,
    copy_index_to,
    merge_indexes_to,
    move_replica,
)
from .selfheal import (
    BreakerConfig,
    BreakerState,
    RebuildReport,
    ReplicaHealth,
    ReplicaHealthMonitor,
    SelfHealConfig,
    rebuild_steps,
)
from .shard import Shard, ShardReplica
from .sim import (
    MAINTENANCE_POLICIES,
    ClusterConfig,
    ClusterDayStats,
    ClusterResult,
    ClusterSimulation,
    Turn,
    run_cluster_simulation,
)

__all__ = [
    "MAINTENANCE_POLICIES",
    "Autoscaler",
    "AutoscalerDecision",
    "BreakerConfig",
    "BreakerState",
    "ChangeAborted",
    "ClusterBatchResult",
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterCostSummary",
    "ClusterDayStats",
    "ClusterResult",
    "ClusterSimulation",
    "ElasticConfig",
    "HashPartitioner",
    "Merge",
    "Partitioner",
    "RangePartitioner",
    "RebalanceReport",
    "RebuildReport",
    "ReplicaHealth",
    "ReplicaHealthMonitor",
    "ReshardReport",
    "ScaleAction",
    "SelfHealConfig",
    "Shard",
    "ShardReplica",
    "SlotHashPartitioner",
    "Split",
    "Turn",
    "copy_index_to",
    "make_partitioner",
    "merge_indexes_to",
    "move_replica",
    "partition_store",
    "rebuild_steps",
    "reshard_change",
    "run_cluster_simulation",
]

"""Day-by-day cluster simulation: staggered maintenance, shared serving.

Runs one maintenance scheme per shard over a partitioned record store,
each shard on its own device(s) of a :class:`~repro.storage.array.DiskArray`,
and serves the day's query stream against the whole cluster on a shared
timeline.  This is the repository's one day loop: a day is
:meth:`ClusterSimulation.turn` (the maintenance step, which returns a
:class:`Turn`), then the simulated serving pass, then the day's
bookkeeping.  The day is a generator: :meth:`ClusterSimulation.day_steps`
yields a :class:`~repro.core.boundary.Boundary` before every plan op,
staged-change step and rebuild step, in the order the day runs them, and
one ``"serve"`` boundary before the serving pass; ``turn`` and
``run_transition`` run it to its end.

Model
-----

**Maintenance.**  Each day, every shard's scheme emits its plan and every
replica in service executes it on its device(s).  The *staggered* policy
(Kimura et al.'s deploy-order concern applied to shard transitions) runs
shards in batches of at most ``ceil(k * max_concurrent_frac)``: batch
``j+1`` starts when batch ``j``'s slowest shard finishes, so the cluster
never has more than a bounded fraction of its serving capacity in
transition.  ``lockstep`` starts every shard at once (the naive policy
the benchmark compares against).

**Serving.**  The day's query units arrive evenly over
``arrival_stretch x`` the cluster maintenance makespan.  A probe routes
to the shard owning its value; a scan fans out to every shard.  Each
routed unit is answered by the cluster's one serving rule
(:mod:`repro.cluster.coordinator`) and placed on the day's timeline:

=================  ======================================================
before the window  a unit arriving before its shard's maintenance window
                   opens is served from the pre-transition state on its
                   own device queue (the staggering win; its cost and
                   coverage are measured on the post-transition
                   substrate, one day's transition apart)
blocked            a constituent an in-place op is mutating is waited for
                   (``WAIT``) or skipped, its days missing (``DEGRADE``)
strict, degraded   the coordinator's rule: failover beats degradation, a
                   stale offline mark excludes its replica for the unit
retry, retire      a transient retries under the monitor (or retires its
                   replica without one); a dead device retires it
breaker clock      the day's clock base plus the unit's arrival
devices            held first come first served for the time the unit
                   charged each; a device charged nothing does not delay it
no replica         the shard answers dark: its window days missing,
                   never a wrong answer
dark day           a shard dark before the day records zero I/O and zero
                   bytes in its ``DayMetrics``: it holds nothing to serve
=================  ======================================================

With ``k=1, r=1`` and lockstep maintenance the whole machinery is the
serialized driver (:func:`repro.sim.run_simulation`): one store (the
partition is the identity), one device, maintenance from time zero,
every query served post-maintenance in order.
``tests/cluster/test_cluster_equivalence.py`` asserts bit-identical
per-day costs and query results against the old driver, kept as
``tests/reference/serialized.py``, for all seven schemes and three
techniques.  With ``devices_per_replica = d`` the one replica spans ``d``
devices and rotates its index creations over them, so queries overlap
the transition — the overlap benchmark (:mod:`repro.bench.overlap`)
compares the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..core.boundary import Boundary, Steps, drive
from ..core.executor import ExecutionReport
from ..core.ops import Op
from ..core.records import RecordStore
from ..core.schemes.base import WaveScheme
from ..core.staged import ChangeAborted, StagedChangeRunner, provision_spares
from ..core.wave import WaveIndex
from ..errors import ClusterError, DegradedWindowError
from ..index.config import IndexConfig
from ..index.updates import UpdateTechnique
from ..obs import CounterWindow, Histogram, MetricsRegistry
from ..sim.metrics import DayMetrics, SimulationResult
from ..sim.querygen import ProbeUnit, QueryUnit, QueryWorkload, ScanUnit
from ..sim.scheduler import OpInterval, OverlapPolicy
from ..storage.array import DiskArray, make_device
from ..storage.cost import DiskParameters
from ..storage.disk import SimulatedDisk
from ..storage.pagecache import PageCacheSnapshot
from ..storage.stats import IOSnapshot
from ..advisor import (
    AdvisorConfig,
    CostModelPlanner,
    Design,
    DesignRouter,
    Retune,
    RetuneReport,
    TrafficWindow,
    calibrate_parameters,
)
from .coordinator import ClusterCoordinator
from .elastic import (
    Autoscaler,
    AutoscalerDecision,
    ElasticConfig,
    Merge,
    ReshardReport,
    Split,
    reshard_change,
)
from .partitioner import SlotHashPartitioner, make_partitioner, partition_store
from .rebalance import RebalanceReport, move_replica
from .selfheal import (
    RebuildReport,
    ReplicaHealthMonitor,
    SelfHealConfig,
    rebuild_steps,
)
from .shard import Shard, ShardReplica

#: Maintenance scheduling policies accepted by :attr:`ClusterConfig.maintenance`.
MAINTENANCE_POLICIES = ("staggered", "lockstep")


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of the sharded cluster.

    Args:
        n_shards: Number of key-space shards ``k``.
        replication: Replicas per shard ``r`` (1 = no redundancy).
        partitioner: ``"hash"`` or ``"range"``.
        range_splits: Split points for the range partitioner
            (``k - 1`` values, strictly increasing).
        maintenance: ``"staggered"`` or ``"lockstep"`` day-boundary
            scheduling (see module docstring).
        max_concurrent_frac: Staggering bound — at most
            ``ceil(k * max_concurrent_frac)`` shards in transition at
            once.  Ignored under lockstep.
        policy: Wait-or-degrade behaviour for constituents blocked by
            in-place maintenance (same semantics as the single-index
            scheduler).
        arrival_stretch: Queries arrive evenly over
            ``arrival_stretch x`` the cluster maintenance makespan.
        page_cache_bytes: Optional per-device LRU page-cache capacity.
        page_size: Page size for the per-device caches.
        selfheal: Optional self-healing configuration (retry/backoff,
            per-replica circuit breakers, automatic re-replication — see
            :mod:`repro.cluster.selfheal`).  ``None`` (the default)
            keeps the PR 4 behaviour: a retired replica is not replaced.
        elastic: Optional elastic-resharding configuration (online shard
            split/merge plus the per-day autoscaler — see
            :mod:`repro.cluster.elastic`).  ``None`` (the default) keeps
            the topology frozen; with it set and ``partitioner="hash"``,
            the plain hash partitioner is silently upgraded to the
            slot-based one so splits are even possible.
        advisor: Optional online-tuning configuration (workload
            observation, cost-model re-planning, journaled per-replica
            retunes, divergent designs — see :mod:`repro.advisor`).
            ``None`` (the default) keeps every design frozen and the
            run bit-identical to an advisor-less build.
        devices_per_replica: Devices each replica spans.  With more than
            one, the replica rotates its index creations over them, so a
            rebuild streams to a device its serving constituents do not
            occupy and queries overlap the transition (the paper's
            "build new constituent indices on separate disks").  Every
            replica spans this many devices, however it is made: the
            healer's rebuild, a split's or merge's child and a retune
            each provision as many fresh spares.
    """

    n_shards: int = 2
    replication: int = 1
    partitioner: str = "hash"
    range_splits: tuple[Any, ...] = ()
    maintenance: str = "staggered"
    max_concurrent_frac: float = 0.5
    policy: OverlapPolicy = OverlapPolicy.WAIT
    arrival_stretch: float = 2.0
    page_cache_bytes: int | None = None
    page_size: int | None = None
    selfheal: SelfHealConfig | None = None
    elastic: ElasticConfig | None = None
    advisor: "AdvisorConfig | None" = None
    devices_per_replica: int = 1

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ClusterError(f"need at least one shard, got {self.n_shards}")
        if self.replication < 1:
            raise ClusterError(
                f"replication must be >= 1, got {self.replication}"
            )
        if self.devices_per_replica < 1:
            raise ClusterError(
                "devices_per_replica must be >= 1, "
                f"got {self.devices_per_replica}"
            )
        if self.maintenance not in MAINTENANCE_POLICIES:
            raise ClusterError(
                f"unknown maintenance policy {self.maintenance!r}; "
                f"known: {', '.join(MAINTENANCE_POLICIES)}"
            )
        if not 0.0 < self.max_concurrent_frac <= 1.0:
            raise ClusterError(
                f"max_concurrent_frac must be in (0, 1], "
                f"got {self.max_concurrent_frac}"
            )
        if self.arrival_stretch < 1.0:
            raise ClusterError(
                f"arrival_stretch must be >= 1.0, got {self.arrival_stretch}"
            )
        if self.page_cache_bytes is not None and self.page_cache_bytes < 1:
            raise ClusterError(
                f"page_cache_bytes must be >= 1, got {self.page_cache_bytes}"
            )
        if (
            self.advisor is not None
            and self.advisor.divergent
            and self.replication < 2
        ):
            raise ClusterError(
                "divergent per-replica designs need replication >= 2, "
                f"got {self.replication}"
            )

    @property
    def max_concurrent_shards(self) -> int:
        """Return how many shards may transition simultaneously."""
        if self.maintenance == "lockstep":
            return self.n_shards
        return max(1, math.ceil(self.n_shards * self.max_concurrent_frac))

    @property
    def n_devices(self) -> int:
        """Return the array size: the devices every shard replica spans."""
        return self.n_shards * self.replication * self.devices_per_replica


@dataclass(frozen=True)
class ClusterDayStats:
    """Timeline outcome of one cluster day."""

    day: int
    maintenance_makespan_seconds: float
    makespan_seconds: float
    shard_windows: tuple[tuple[float, float], ...]
    queries: int = 0
    queries_waited: int = 0
    queries_degraded: int = 0
    failovers: int = 0
    shards_unavailable: tuple[int, ...] = ()
    missing_days: frozenset[int] = frozenset()
    latency_during_transition: dict[str, float] | None = None
    latency_steady_state: dict[str, float] | None = None
    #: Self-healing activity (all zero when self-healing is disabled).
    rebuilds: int = 0
    rebuilds_failed: int = 0
    rebuild_seconds: float = 0.0
    rebuild_spans: tuple[float, ...] = ()
    retries: int = 0
    breaker_opens: int = 0
    #: Elastic resharding activity (all zero/None when elasticity is off).
    reshards: int = 0
    reshards_aborted: int = 0
    reshard_deferred: str | None = None
    reshard_kinds: tuple[str, ...] = ()
    reshard_seconds: float = 0.0
    topology_version: int = 0
    n_shards: int = 0
    autoscaler: dict[str, Any] | None = None
    #: Online-tuning activity (all zero/None when the advisor is off).
    retunes: int = 0
    retunes_aborted: int = 0
    retune_deferred: str | None = None
    retune_seconds: float = 0.0
    #: Per-replica design labels after this day's retunes, keyed
    #: ``"s{shard}/r{replica}"`` — only replicas with a divergent design.
    designs: dict[str, str] | None = None
    #: Per-shard serving busy time; ``max()`` of it is the serving
    #: bottleneck the elastic bench measures throughput against.
    query_seconds: tuple[float, ...] = ()


@dataclass
class ClusterResult:
    """Accumulated metrics over a whole cluster run."""

    window: int
    n_indexes: int
    scheme_name: str
    technique: str
    n_shards: int
    replication: int
    maintenance: str
    partitioner: dict[str, Any]
    #: The live shards' day series (:attr:`Shard.series`), in routing
    #: order.
    shard_results: list[SimulationResult]
    days: list[ClusterDayStats] = field(default_factory=list)
    latency_during: dict[str, float] | None = None
    latency_steady: dict[str, float] | None = None
    #: Per-shard series of shards retired by a topology change (their
    #: history stops on the day the split/merge replaced them).
    retired_shard_results: list[SimulationResult] = field(
        default_factory=list
    )

    def total_requests(self) -> int:
        """Return query requests served over the run."""
        return sum(d.queries for d in self.days)

    def total_makespan_seconds(self) -> float:
        """Return the summed per-day cluster timeline lengths."""
        return sum(d.makespan_seconds for d in self.days)

    def queries_per_second(self) -> float:
        """Return run throughput: requests over cluster makespan."""
        makespan = self.total_makespan_seconds()
        if makespan <= 0.0:
            return 0.0
        return self.total_requests() / makespan

    def total_failovers(self) -> int:
        """Return replica failovers over the run."""
        return sum(d.failovers for d in self.days)

    def total_queries_degraded(self) -> int:
        """Return queries answered partially (missing days reported)."""
        return sum(d.queries_degraded for d in self.days)

    def total_rebuilds(self) -> int:
        """Return completed replica rebuilds over the run."""
        return sum(d.rebuilds for d in self.days)

    def total_rebuilds_failed(self) -> int:
        """Return aborted rebuild attempts over the run."""
        return sum(d.rebuilds_failed for d in self.days)

    def max_rebuild_seconds(self) -> float:
        """Return the longest single replica rebuild (copy + catch-up)
        span — the recovery-makespan headline the chaos soak gates on.
        A per-day *sum* would scale with how many kills happen to land
        on the same day, which is schedule noise, not recovery speed."""
        return max(
            (span for d in self.days for span in d.rebuild_spans),
            default=0.0,
        )

    def total_reshards(self) -> int:
        """Return completed topology changes (splits + merges)."""
        return sum(d.reshards for d in self.days)

    def total_reshards_aborted(self) -> int:
        """Return aborted topology-change attempts over the run."""
        return sum(d.reshards_aborted for d in self.days)

    def final_n_shards(self) -> int:
        """Return the shard count at the end of the run."""
        if self.days:
            return self.days[-1].n_shards or self.n_shards
        return self.n_shards


@dataclass(frozen=True)
class Turn:
    """What one maintenance step did (:meth:`ClusterSimulation.turn`).

    ``reports`` and ``windows`` are per shard: the plan report of the
    shard's metrics replica and its ``(start, end)`` maintenance window on
    the day's timeline.  ``baselines`` hold that replica (the primary as
    the plans begin; ``None`` for a dark shard) with its I/O and
    page-cache counters from before they ran; the day's bookkeeping
    measures its deltas from them, even if it retired meanwhile.
    """

    day: int
    reports: tuple[ExecutionReport, ...]
    windows: tuple[tuple[float, float], ...]
    maintenance_makespan_seconds: float
    baselines: tuple[
        tuple[ShardReplica, IOSnapshot, PageCacheSnapshot | None] | None, ...
    ]
    rebuilds: tuple[RebuildReport, ...] = ()
    rebuilds_failed: int = 0
    reshards: tuple[ReshardReport, ...] = ()
    reshards_aborted: int = 0
    reshard_deferred: str | None = None
    retunes: tuple[RetuneReport, ...] = ()
    retunes_aborted: int = 0
    retune_deferred: str | None = None


@dataclass
class _Served:
    """The day's simulated serving pass, tallied for its bookkeeping."""

    query_seconds: list[float]
    requests: list[int]
    during: Histogram
    steady: Histogram
    queries: int = 0
    waited: int = 0
    degraded: int = 0
    failovers: int = 0
    last_completion: float = 0.0
    missing_days: set[int] = field(default_factory=set)


def _reads(wave: WaveIndex, name: str, t1: int, t2: int) -> bool:
    """Return whether a query over ``[t1, t2]`` reads constituent ``name``."""
    index = wave.bindings.get(name)
    return index is not None and any(t1 <= d <= t2 for d in index.time_set)


def _blocked_until(
    wave: WaveIndex,
    t1: int,
    t2: int,
    arrival: float,
    intervals: list[OpInterval],
) -> tuple[set[str], float]:
    """Return the constituents a query over ``[t1, t2]`` finds blocked at
    ``arrival`` and when they are released.

    Under the wait policy a query re-checks after each release (a
    constituent can be mutated by several ops in one plan), so the
    returned release time is a fixed point.
    """
    release = arrival
    blocked: set[str] = set()
    changed = True
    while changed:
        changed = False
        for interval in intervals:
            if (
                interval.blocking
                and interval.start <= release < interval.end
                and _reads(wave, interval.target, t1, t2)
            ):
                blocked.add(interval.target)
                release = interval.end
                changed = True
    return blocked, release


class ClusterSimulation:
    """Day-by-day run of one scheme per shard over a partitioned store.

    ``run_start()`` / ``run_transition(day)`` / ``run(last_day)`` run and
    serve whole days into :attr:`result`; :meth:`turn` is a day's
    maintenance step alone.  Additionally exposes :attr:`coordinator` for
    direct scatter-gather queries against the cluster's current state and
    :meth:`rebalance_shard` for moving a shard between devices.
    """

    def __init__(
        self,
        scheme_factory: Callable[[], WaveScheme],
        store: RecordStore,
        *,
        technique: UpdateTechnique = UpdateTechnique.SIMPLE_SHADOW,
        index_config: IndexConfig | None = None,
        disk_params: DiskParameters | None = None,
        queries: QueryWorkload | None = None,
        cluster: ClusterConfig | None = None,
        device_factory: Callable[[int], SimulatedDisk] | None = None,
    ) -> None:
        self.config = cluster or ClusterConfig()
        cfg = self.config
        if cfg.elastic is not None and cfg.partitioner == "hash":
            # A plain modulo-hash table cannot split one shard without
            # re-routing every key; the slot table can.
            self.partitioner: Any = SlotHashPartitioner.balanced(
                cfg.n_shards
            )
        else:
            self.partitioner = make_partitioner(
                cfg.partitioner, cfg.n_shards, range_splits=cfg.range_splits
            )
        shard_stores = partition_store(store, self.partitioner)
        self.store = store
        self.queries = queries
        self.obs = MetricsRegistry()
        self._disk_params = disk_params
        self._device_factory = device_factory
        self._monitor: ReplicaHealthMonitor | None = (
            ReplicaHealthMonitor(cfg.selfheal, self.obs)
            if cfg.selfheal is not None
            else None
        )
        self._clock_base = 0.0
        self._spares_created = 0
        self._autoscaler: Autoscaler | None = (
            Autoscaler(cfg.elastic)
            if cfg.elastic is not None and cfg.elastic.autoscale
            else None
        )
        self._last_action_day: int | None = None
        self.array = DiskArray.create(
            cfg.n_devices,
            params=disk_params,
            page_cache_bytes=cfg.page_cache_bytes,
            page_size=cfg.page_size,
            device_factory=device_factory,
        )
        #: The change queue, head first: staged changes (``Split``,
        #: ``Merge``, ``Retune``) waiting to run, one a day, on
        #: :attr:`staged`, the runner of every journaled staged change.
        self.changes: list[Split | Merge | Retune] = []
        self.staged = StagedChangeRunner(
            make_spare=self._make_spare,
            array=self.array,
            obs=self.obs,
            monitor=self._monitor,
        )
        index_config = index_config or IndexConfig()
        width = cfg.devices_per_replica
        self.shards: list[Shard] = []
        for shard_id in range(cfg.n_shards):
            scheme = scheme_factory()
            replicas = []
            for replica_id in range(cfg.replication):
                first = (replica_id * cfg.n_shards + shard_id) * width
                replicas.append(
                    ShardReplica(
                        shard_id,
                        replica_id,
                        DiskArray(self.array.devices[first : first + width]),
                        store=shard_stores[shard_id],
                        technique=technique,
                        scheme=scheme,
                        config=index_config,
                    )
                )
            self.shards.append(
                Shard(shard_id, scheme, shard_stores[shard_id], replicas)
            )
        self.scheme = self.shards[0].scheme
        #: Online-tuning machinery (``None``, and no shard's ``traffic``
        #: window built or fed, when the advisor is off).
        self._planner: CostModelPlanner | None = None
        self.router: DesignRouter | None = None
        if cfg.advisor is not None:
            params = calibrate_parameters(
                store, index_config, window=self.scheme.window
            )
            self._planner = CostModelPlanner(params, cfg.advisor)
            for shard in self.shards:
                shard.traffic = TrafficWindow(cfg.advisor.observe_days)
            if cfg.advisor.divergent:
                self.router = DesignRouter()
        self.coordinator = ClusterCoordinator(
            self.shards,
            self.partitioner,
            self.obs,
            monitor=self._monitor,
            router=self.router,
        )
        self.latency_during = self.obs.histogram(
            "cluster.latency.during_transition"
        )
        self.latency_steady = self.obs.histogram(
            "cluster.latency.steady_state"
        )
        self.result = ClusterResult(
            window=self.scheme.window,
            n_indexes=self.scheme.n_indexes,
            scheme_name=self.scheme.name,
            technique=technique.value,
            n_shards=cfg.n_shards,
            replication=cfg.replication,
            maintenance=cfg.maintenance,
            partitioner=self.partitioner.describe(),
            shard_results=[shard.series for shard in self.shards],
        )
        self._started = False

    # ------------------------------------------------------------------
    # Public day loop
    # ------------------------------------------------------------------

    @property
    def window(self) -> int:
        """Return the schemes' window ``W``."""
        return self.scheme.window

    def run_start(self) -> ClusterDayStats:
        """Execute every shard's initial build (day ``W``) and serve it."""
        if self._started:
            raise ClusterError("cluster simulation already started")
        return drive(self.day_steps(self.window))

    def run_transition(self, day: int) -> ClusterDayStats:
        """Execute one daily transition on every shard and serve it."""
        if not self._started:
            raise ClusterError("call run_start() first")
        return drive(self.day_steps(day))

    def run(self, last_day: int) -> ClusterResult:
        """Run start plus transitions through ``last_day``."""
        self.run_start()
        for day in range(self.window + 1, last_day + 1):
            self.run_transition(day)
        self.result.latency_during = (
            self.latency_during.summary() if self.latency_during.count else None
        )
        self.result.latency_steady = (
            self.latency_steady.summary() if self.latency_steady.count else None
        )
        return self.result

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------

    def rebalance_shard(
        self, shard_id: int, to_device: int, *, replica_id: int = 0
    ) -> RebalanceReport:
        """Move replica ``replica_id`` (by id; a retired one is refused)
        of ``shard_id`` onto array device ``to_device``.

        The move is a packed-shadow-style copy charged to both devices'
        cost clocks (see :mod:`repro.cluster.rebalance`); freed source
        extents invalidate any cached pages.
        """
        if not 0 <= shard_id < len(self.shards):
            raise ClusterError(f"no shard {shard_id}")
        if not 0 <= to_device < len(self.array):
            raise ClusterError(
                f"device {to_device} outside [0, {len(self.array)})"
            )
        shard = self.shards[shard_id]
        replica = next(
            (r for r in shard.replicas if r.replica_id == replica_id), None
        )
        if replica is None:
            raise ClusterError(f"shard {shard_id} has no replica {replica_id}")
        if len(replica.span) > 1:
            raise ClusterError(f"{replica.name} spans devices; it cannot move")
        if self.array.devices[to_device] is replica.device:
            raise ClusterError(
                f"{replica.name} already lives on device {to_device}"
            )
        report = move_replica(replica, self.array.devices[to_device], self.array)
        self.obs.counter("cluster.rebalances").inc()
        self.obs.counter("cluster.rebalance_bytes").inc(report.bytes_moved)
        return report

    # ------------------------------------------------------------------
    # Elastic resharding
    # ------------------------------------------------------------------

    def request_split(
        self,
        shard_id: int,
        *,
        split_key: Any = None,
        reason: str = "manual",
    ) -> Split:
        """Queue a split of ``shard_id`` at the tail of the change queue.

        With ``split_key=None`` the engine picks the median owned key
        (range partitioner) or halves the slot set (slot-hash) when the
        split runs.  The split names the shard now at ``shard_id`` and
        follows it: a split or merge that runs first and renumbers it does
        not redirect this one.  A ``shard_id`` that names no shard is
        refused here, with :class:`ClusterError`.
        """
        return self._request(Split, shard_id, split_key=split_key, reason=reason)

    def request_merge(self, shard_id: int, *, reason: str = "manual") -> Merge:
        """Queue a merge of ``shard_id`` with its next neighbour at the
        tail of the change queue; refuse a shard with no next neighbour."""
        return self._request(Merge, shard_id, reason=reason)

    def _request(self, kind: type[Split | Merge], shard_id: int, **options):
        if self.config.elastic is None:
            raise ClusterError(
                "elastic resharding is not enabled "
                "(set ClusterConfig.elastic)"
            )
        change = kind(self, shard_id, **options)
        self.changes.append(change)
        return change

    def _under_replicated(self) -> bool:
        """Return whether any healable shard is below target replication."""
        selfheal = self.config.selfheal
        if self._monitor is None or selfheal is None or not selfheal.rebuild:
            return False
        return any(
            0 < len(shard.replicas) < self.config.replication
            for shard in self.shards
        )

    def _change_steps(self, day: int) -> Steps:
        """Run the head of the change queue, if it may run today; return
        what became of it as :class:`Turn` fields (the kinds' ``tally``).

        One rule for every kind.  Changes run before the day's plans are
        drawn, so a committed one hands the day loop an already-caught-up
        cluster, and at most one stages a day: the head.  While any shard
        is under-replicated the head waits — healing outranks staged
        changes, the deterministic contention rule.  A change its
        ``validate()`` refuses before its journal opens costs nothing: it
        is dropped and the next head tried the same day.  One that aborts
        after (a fault at a step) stays at the head and is retried
        tomorrow.  Each refusal or abort is counted in its
        kind's aborts, with its reason.
        """
        if not self.changes or day <= self.window:
            return {}
        if self._under_replicated():
            change = self.changes[0]
            self.obs.counter(f"{change.counters}.deferred").inc()
            return {change.tally[2]: "under-replicated"}
        tallies: dict[str, Any] = {}
        while self.changes:
            change = self.changes[0]
            done, aborted, waited = change.tally
            try:
                report = yield from self.staged.steps(change, day=day)
            except ChangeAborted as exc:
                tallies[aborted] = tallies.get(aborted, 0) + 1
                tallies[waited] = exc.reason
                if exc.journaled:
                    return tallies  # staged, then aborted: retried tomorrow
                self.changes.pop(0)  # refused before staging: costs no day
                continue
            self.changes.pop(0)
            tallies[done] = (report,)
            return tallies
        return tallies

    # ------------------------------------------------------------------
    # Online tuning advisor
    # ------------------------------------------------------------------

    def _replica_design(self, replica: ShardReplica) -> Design:
        """Return the design a replica currently runs."""
        scheme = replica.scheme
        return Design(
            scheme.name, scheme.n_indexes, replica.executor.technique.value
        )

    def _plan_retunes(self, day: int) -> None:
        """Close every shard's traffic day and queue accepted design
        switches, at the day boundary."""
        planner = self._planner
        assert planner is not None
        queued = {c.replica for c in self.changes if isinstance(c, Retune)}
        for shard in self.shards:
            traffic = shard.traffic
            assert traffic is not None
            traffic.end_day()
            obs = traffic.observation(shard.shard_id)
            for replica in shard.replicas:
                if replica in queued:
                    continue
                view = planner.replica_view(
                    obs, replica.replica_id, self.config.replication
                )
                decision = planner.decide(
                    replica, day, self._replica_design(replica), view
                )
                if decision is not None:
                    self.changes.append(Retune(self, replica, decision))
                    self.obs.counter("cluster.advisor.decisions").inc()

    # ------------------------------------------------------------------
    # Self-healing (re-replication)
    # ------------------------------------------------------------------

    def _make_spare(self, offset: int) -> SimulatedDisk:
        """Provision a fresh device, the ``offset``-th of one acquisition;
        a device factory is given the array index it will occupy."""
        selfheal = self.config.selfheal
        ordinal = self._spares_created
        self._spares_created += 1
        if selfheal is not None and selfheal.spare_factory is not None:
            return selfheal.spare_factory(ordinal)
        if self._device_factory is not None:
            return self._device_factory(len(self.array) + offset)
        return make_device(
            self._disk_params, self.config.page_cache_bytes, self.config.page_size
        )

    def _healing_steps(
        self, day: int, plans: dict[WaveScheme, list[Op]]
    ) -> Steps:
        """Re-replicate under-replicated shards (one rebuild each per day).

        Returns per-shard maintenance start delays (the donor's device is
        busy feeding the copy until then — rebuild I/O contends with the
        day's maintenance and serving), the completed rebuild reports,
        and the number of aborted attempts.
        """
        delays = [0.0] * len(self.shards)
        reports: list[RebuildReport] = []
        failed = 0
        monitor = self._monitor
        selfheal = self.config.selfheal
        if monitor is None or selfheal is None or not selfheal.rebuild:
            return delays, reports, failed
        for shard in self.shards:
            donor = shard.primary
            if donor is None or len(shard.replicas) >= self.config.replication:
                continue
            span = DiskArray(
                provision_spares(
                    self._make_spare, self.array, self.config.devices_per_replica
                )
            )
            try:
                replica, report = yield from rebuild_steps(
                    shard,
                    donor,
                    span,
                    plan=plans[donor.scheme],
                    day=day,
                    monitor=monitor,
                )
            except ChangeAborted:
                # The donor is intact and partial work was swept; the
                # dead/undersized spare stays in the array as a retired
                # member and a fresh one is provisioned next day.
                failed += 1
                self.obs.counter("cluster.heal.rebuilds_failed").inc()
                continue
            shard.join(replica)
            reports.append(report)
            delays[shard.shard_id] = max(
                delays[shard.shard_id], report.copy_read_end
            )
            self.obs.counter("cluster.heal.rebuilds").inc()
            self.obs.counter("cluster.heal.rebuild_bytes").inc(
                report.bytes_copied
            )
        return delays, reports, failed

    # ------------------------------------------------------------------
    # Maintenance scheduling
    # ------------------------------------------------------------------

    def _maintenance_steps(
        self,
        day: int,
        plans: dict[WaveScheme, list[Op]],
        delays: list[float],
    ) -> Steps:
        """Run every replica's planner's plan under the staggering policy.

        ``delays`` pushes a shard's start past its batch start (a rebuild
        was reading the donor's device until then).  Replicas already
        caught up to ``day`` by a rebuild or a staged change keep that
        timeline instead of re-running the plan.

        Returns per-shard reports (from the day's metrics replica), the
        per-shard ``(start, end)`` maintenance windows on the cluster
        timeline, and the cluster maintenance makespan.
        """
        batch_size = self.config.max_concurrent_shards
        reports: list[ExecutionReport] = [
            ExecutionReport() for _ in self.shards
        ]
        windows: list[tuple[float, float]] = [(0.0, 0.0)] * len(self.shards)
        batch_start = 0.0
        cluster_end = 0.0
        for first in range(0, len(self.shards), batch_size):
            batch = self.shards[first : first + batch_size]
            batch_end = batch_start
            for shard in batch:
                start = max(batch_start, delays[shard.shard_id])
                metrics_replica = shard.primary
                shard_end = start
                for replica in shard.replicas:
                    if replica.caught_up_day == day:
                        shard_end = max(shard_end, replica.maintenance_end)
                        continue
                    report, retired = yield from replica.maintenance_steps(
                        plans[replica.scheme], start, day=day,
                        monitor=self._monitor,
                    )
                    if retired is not None:
                        shard.retire(replica, self._monitor, reason=retired)
                    if replica is metrics_replica:
                        reports[shard.shard_id] = report
                    shard_end = max(shard_end, replica.maintenance_end)
                windows[shard.shard_id] = (start, shard_end)
                batch_end = max(batch_end, shard_end)
            batch_start = batch_end
            cluster_end = batch_end
        return reports, windows, cluster_end

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _split_unit(self, unit: QueryUnit) -> list[tuple[int, QueryUnit]]:
        """Route one query unit to the shards that must serve it."""
        if isinstance(unit, ScanUnit):
            return [(s, unit) for s in range(len(self.shards))]
        assert isinstance(unit, ProbeUnit)
        if len(self.shards) == 1:
            return [(0, unit)]
        groups: dict[int, list[Any]] = {}
        shard_ids = self.partitioner.shards_for_many(unit.values)
        for value, shard_id in zip(unit.values, shard_ids):
            groups.setdefault(shard_id, []).append(value)
        routed: list[tuple[int, QueryUnit]] = []
        for shard_id in sorted(groups):
            values = groups[shard_id]
            if len(values) == len(unit.values):
                routed.append((shard_id, unit))
            else:
                routed.append(
                    (
                        shard_id,
                        ProbeUnit(
                            tuple(values), unit.t1, unit.t2, unit.batched
                        ),
                    )
                )
        return routed

    def _serve_on_shard(
        self,
        shard: Shard,
        unit: QueryUnit,
        arrival: float,
        avail_pre: dict[SimulatedDisk, float],
        avail_post: dict[SimulatedDisk, float],
    ) -> tuple[float, frozenset[int], float, float, bool]:
        """Serve ``unit`` on ``shard`` by the cluster's one serving rule
        (:meth:`ClusterCoordinator._serve`) and place it on the devices.

        The rule's call applies the overlap policy on the replica it is
        handed: a constituent an in-place op is mutating at ``arrival`` is
        waited for (``WAIT``) or skipped (``DEGRADE``).  Returns
        ``(seconds, missing_days, end, service_seconds, degraded)``; a
        dark shard answers nothing, its window days missing.
        """
        wait_policy = self.config.policy is OverlapPolicy.WAIT
        t1, t2 = unit.t1, unit.t2

        def call(replica: ShardReplica, degraded: bool):
            wave = replica.wave
            blocked, release = _blocked_until(
                wave, t1, t2, arrival, replica.intervals
            )
            skipped: set[str] = set() if wait_policy else blocked
            if (
                skipped
                and not degraded
                and any(_reads(wave, n, t1, t2) for n in wave.offline - skipped)
            ):
                # The policy's skips do not license a stale mark's.
                raise DegradedWindowError(
                    f"{replica.name} has an offline constituent in [{t1}, {t2}]"
                )
            added = skipped - wave.offline
            wave.offline |= added
            span = replica.span
            clocks = span.clocks()
            batch: Callable[..., Any] = (
                wave.probe_many if unit.kind == "probe" else wave.scan_many
            )
            try:
                result = batch(unit.specs, degraded=degraded or bool(skipped))
            finally:
                wave.offline -= added
            wait = release - arrival if wait_policy else 0.0
            return result, wait, span, clocks, bool(skipped)

        served, replica, aborted = self.coordinator._serve(
            shard,
            call,
            route=(t1, t2, unit.kind),
            now=self._clock_base + arrival,
        )
        if served is None:
            missing = frozenset(shard.window_days(t1, t2))
            return 0.0, missing, arrival + aborted, 0.0, True
        result, wait, span, clocks_before, degraded = served
        ready = arrival + wait + aborted
        # Before the shard's transition begins, serve from the
        # pre-transition window immediately (the staggering win).
        avail = avail_pre if arrival < replica.maintenance_start else avail_post
        # First come, first served per device: reads of different
        # devices proceed in parallel, and a unit that charges a
        # device no time does not queue behind it.
        end = ready
        service = 0.0
        for device, now, then in zip(span.devices, span.clocks(), clocks_before):
            delta = now - then
            if delta <= 0:
                continue
            start = max(ready, avail.get(device, 0.0))
            avail[device] = start + delta
            end = max(end, start + delta)
            service = max(service, delta)
        missing = frozenset().union(*(r.missing_days for r in result.results))
        return unit.seconds(result), missing, end, service, degraded

    # ------------------------------------------------------------------
    # Day loop: the maintenance step, the serving pass, the bookkeeping
    # ------------------------------------------------------------------

    def turn(self, day: int) -> Turn:
        """Run the cluster's maintenance step for ``day``; return what it
        did: :meth:`turn_steps` run to its end."""
        return drive(self.turn_steps(day))

    def turn_steps(self, day: int) -> Steps:
        """Run the cluster's maintenance step for ``day``, yielding its
        boundaries; return the :class:`Turn`.

        In order: the head of the change queue runs (unless healing,
        which outranks it, is due), then every planner a live replica
        runs draws one plan — the start build on the first turn, the
        day's transition after — and healing and maintenance run with
        the day posted once for the cluster.  The step reads no query
        workload and no serving state, so
        ``run_transition(day)`` with ``queries=None`` is exactly this
        plus the day's bookkeeping.  The boundaries come in that order:
        the staged changes' steps (with their catch-ups' ops), then each
        rebuild's copies and catch-up ops, then every replica's plan ops,
        shard by shard.
        """
        first = not self._started
        if first and day != self.window:
            raise ClusterError("call run_start() first")
        self._started = True

        if self._monitor is not None:
            self._monitor.now = self._clock_base
        # Staged changes run first: snapshots, plans, and serving all
        # see the post-swap cluster (new replicas arrive caught up).
        changed = yield from self._change_steps(day)
        baselines = []
        for shard in self.shards:
            replica = shard.primary
            if replica is None:
                baselines.append(None)
                continue
            span = replica.span
            baselines.append(
                (replica, span.io_snapshot(), span.cache_snapshot())
            )

        # One plan per planner a live replica runs, shared by every
        # replica bound to it (planning mutates the planner).  A planner
        # a staged change's catch-up already took to ``day`` has nothing
        # left to plan.
        plans: dict[WaveScheme, list[Op]] = {}
        for shard in self.shards:
            for replica in shard.replicas:
                scheme = replica.scheme
                if scheme in plans:
                    continue
                if first:
                    plans[scheme] = list(scheme.start_ops())
                elif scheme.current_day == day:
                    plans[scheme] = []
                else:
                    plans[scheme] = list(scheme.transition_ops(day))
        # The day is posted once for the cluster: the source store keeps
        # its run — and with it every shard's cut — until the last replica
        # has turned, though an in-place update keeps none.
        with self.store.holding_runs():
            delays, rebuild_reports, rebuilds_failed = (
                yield from self._healing_steps(day, plans)
            )
            reports, windows, cluster_end = yield from self._maintenance_steps(
                day, plans, delays
            )
        return Turn(
            day=day,
            reports=tuple(reports),
            windows=tuple(windows),
            maintenance_makespan_seconds=cluster_end,
            baselines=tuple(baselines),
            rebuilds=tuple(rebuild_reports),
            rebuilds_failed=rebuilds_failed,
            **changed,
        )

    def day_steps(self, day: int) -> Steps:
        """Run one whole day — :meth:`turn_steps`, then a ``"serve"``
        boundary, the serving pass and the bookkeeping — yielding its
        boundaries; return the day's :class:`ClusterDayStats`.

        ``run_start()`` and ``run_transition(day)`` are this run to its
        end (after checking the day is the next one); a fault harness
        drives it itself with :func:`~repro.core.boundary.drive` and acts
        at the boundaries it selects.
        """
        heal_window = self.obs.window(
            "cluster.heal.retries", "cluster.heal.breaker_opens"
        )
        turn = yield from self.turn_steps(day)
        yield Boundary(day, "serve", "serve", 0)
        served = self._serve(day, turn.maintenance_makespan_seconds)
        return self._book(turn, served, heal_window)

    def _serve(self, day: int, maintenance_end: float) -> _Served:
        """Serve the day's query stream on the timeline the turn laid.

        Units arrive evenly over ``arrival_stretch x`` the maintenance
        makespan; a unit's latency is its completion (the slowest shard
        it fanned out to) minus its arrival.
        """
        served = _Served(
            query_seconds=[0.0] * len(self.shards),
            requests=[0] * len(self.shards),
            during=Histogram("cluster.latency.during"),
            steady=Histogram("cluster.latency.steady"),
        )
        if self.queries is None:
            return served
        units = self.queries.day_requests(day, self.window)
        if not units:
            return served
        horizon = maintenance_end * self.config.arrival_stretch
        # When each device is next free to serve, by device: before a
        # shard's window from the day's start, after it from when its
        # maintenance left the device.
        avail_pre: dict[SimulatedDisk, float] = {}
        avail_post: dict[SimulatedDisk, float] = {}
        for shard in self.shards:
            for replica in shard.replicas:
                avail_post.update(replica.busy_until())
        failovers = self.coordinator.failovers
        for i, unit in enumerate(units):
            arrival = horizon * i / len(units)
            ends: list[float] = []
            services: list[float] = []
            unit_missing: set[int] = set()
            unit_degraded = False
            for shard_id, subunit in self._split_unit(unit):
                shard = self.shards[shard_id]
                if shard.traffic is not None:
                    shard.traffic.observe(subunit)
                seconds, missing, end, service, was_degraded = (
                    self._serve_on_shard(
                        shard,
                        subunit,
                        arrival,
                        avail_pre,
                        avail_post,
                    )
                )
                served.query_seconds[shard_id] += seconds
                served.requests[shard_id] += subunit.requests
                ends.append(end)
                services.append(service)
                unit_missing |= missing
                unit_degraded = unit_degraded or was_degraded
            completion = max(ends) if ends else arrival
            latency = completion - arrival
            served.queries += unit.requests
            served.last_completion = max(served.last_completion, completion)
            if latency > max(services, default=0.0) + 1e-12:
                served.waited += unit.requests
            if unit_missing or unit_degraded:
                served.degraded += unit.requests
                served.missing_days |= unit_missing
            during = arrival < maintenance_end
            day_hist = served.during if during else served.steady
            run_hist = self.latency_during if during else self.latency_steady
            for _ in range(unit.requests):
                day_hist.observe(latency)
                run_hist.observe(latency)
        served.failovers = self.coordinator.failovers - failovers
        return served

    def _book(
        self, turn: Turn, served: _Served, heal_window: CounterWindow
    ) -> ClusterDayStats:
        """Record the day: per-shard metrics, the autoscaler's and the
        advisor's day-boundary decisions, and the day's stats."""
        day = turn.day
        for shard, baseline, report, seconds in zip(
            self.shards, turn.baselines, turn.reports, served.query_seconds
        ):
            if baseline is None:
                # A dark shard holds nothing it can serve: no I/O, no bytes.
                shard.series.days.append(
                    DayMetrics(
                        day, report.seconds, seconds, 0, 0, 0, 0,
                        frozenset(), IOSnapshot(),
                    )
                )
                continue
            replica, io_before, cache_before = baseline
            span = replica.span
            cache_after = span.cache_snapshot()
            wave = replica.wave
            shard.series.days.append(
                DayMetrics(
                    day=day,
                    seconds=report.seconds,
                    query_seconds=seconds,
                    steady_bytes=span.live_bytes,
                    constituent_bytes=wave.constituent_bytes,
                    peak_bytes=report.peak_bytes,
                    length_days=wave.total_length_days,
                    covered_days=frozenset(wave.covered_days()),
                    io=span.io_snapshot() - io_before,
                    cache=(
                        cache_after - cache_before
                        if cache_after is not None and cache_before is not None
                        else None
                    ),
                )
            )

        decision: AutoscalerDecision | None = None
        if self._autoscaler is not None:
            decision = self._autoscaler.propose(
                day=day,
                busy_seconds=list(served.query_seconds),
                requests=list(served.requests),
                under_replicated=self._under_replicated(),
                last_action_day=self._last_action_day,
            )
            if decision.queued is not None:
                if self.changes:
                    decision = replace(
                        decision, queued=None, deferred_reason="queue-busy"
                    )
                else:
                    self.changes.append(reshard_change(self, decision.queued))
                    self.obs.counter("cluster.elastic.proposed").inc()

        # Day boundary: close every shard's traffic day and queue any
        # retune decisions for execution at the start of tomorrow.
        if self._planner is not None:
            self._plan_retunes(day)
        designs: dict[str, str] | None = None
        if self.config.advisor is not None:
            designs = {
                replica.name: (
                    f"{replica.scheme.name}/{replica.scheme.n_indexes}"
                )
                for shard in self.shards
                for replica in shard.replicas
                if replica.scheme is not shard.scheme
            } or None

        cluster_end = turn.maintenance_makespan_seconds
        makespan = max(cluster_end, served.last_completion)
        stats = ClusterDayStats(
            day=day,
            maintenance_makespan_seconds=cluster_end,
            makespan_seconds=makespan,
            shard_windows=turn.windows,
            queries=served.queries,
            queries_waited=served.waited,
            queries_degraded=served.degraded,
            failovers=served.failovers,
            shards_unavailable=tuple(
                shard.shard_id
                for shard in self.shards
                if not shard.available
            ),
            missing_days=frozenset(served.missing_days),
            latency_during_transition=(
                served.during.summary() if served.during.count else None
            ),
            latency_steady_state=(
                served.steady.summary() if served.steady.count else None
            ),
            rebuilds=len(turn.rebuilds),
            rebuilds_failed=turn.rebuilds_failed,
            rebuild_seconds=sum(r.makespan_seconds for r in turn.rebuilds),
            rebuild_spans=tuple(r.makespan_seconds for r in turn.rebuilds),
            retries=int(heal_window.delta("cluster.heal.retries")),
            breaker_opens=int(
                heal_window.delta("cluster.heal.breaker_opens")
            ),
            reshards=len(turn.reshards),
            reshards_aborted=turn.reshards_aborted,
            reshard_deferred=turn.reshard_deferred,
            reshard_kinds=tuple(r.kind for r in turn.reshards),
            reshard_seconds=sum(r.makespan_seconds for r in turn.reshards),
            retunes=len(turn.retunes),
            retunes_aborted=turn.retunes_aborted,
            retune_deferred=turn.retune_deferred,
            retune_seconds=sum(r.seconds for r in turn.retunes),
            designs=designs,
            topology_version=self.coordinator.topology_version,
            n_shards=len(self.shards),
            autoscaler=decision.describe() if decision is not None else None,
            query_seconds=tuple(served.query_seconds),
        )
        self.result.days.append(stats)
        self._clock_base += makespan
        self.obs.counter("cluster.days").inc()
        self.obs.counter("cluster.queries").inc(served.queries)
        self.obs.counter("cluster.queries_degraded").inc(served.degraded)
        self.obs.histogram("cluster.day.makespan_seconds").observe(makespan)
        return stats


def run_cluster_simulation(
    scheme_factory: Callable[[], WaveScheme],
    store: RecordStore,
    *,
    last_day: int,
    technique: UpdateTechnique = UpdateTechnique.SIMPLE_SHADOW,
    index_config: IndexConfig | None = None,
    disk_params: DiskParameters | None = None,
    queries: QueryWorkload | None = None,
    cluster: ClusterConfig | None = None,
    device_factory: Callable[[int], SimulatedDisk] | None = None,
) -> ClusterResult:
    """One-call convenience wrapper around :class:`ClusterSimulation`.

    The store is partitioned per the config, each shard runs its own scheme
    instance on its own device(s), and the day's query stream is served
    by the whole cluster on a shared timeline.
    """
    sim = ClusterSimulation(
        scheme_factory,
        store,
        technique=technique,
        index_config=index_config,
        disk_params=disk_params,
        queries=queries,
        cluster=cluster,
        device_factory=device_factory,
    )
    return sim.run(last_day)

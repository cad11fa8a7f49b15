"""Day-by-day cluster simulation: staggered maintenance, shared serving.

Runs one maintenance scheme per shard over a partitioned record store,
each shard on its own device(s) of a :class:`~repro.storage.array.DiskArray`,
and serves the day's query stream against the whole cluster on a shared
timeline.  This is the repository's one day loop: a day is
:meth:`ClusterSimulation.turn` (the maintenance step, which returns a
:class:`Turn`), then the simulated serving pass, then the day's
bookkeeping.

Model
-----

**Maintenance.**  Each day, every shard's scheme emits its plan and every
alive replica executes it on its device(s).  The *staggered* policy
(Kimura et al.'s deploy-order concern applied to shard transitions) runs
shards in batches of at most ``ceil(k * max_concurrent_frac)``: batch
``j+1`` starts when batch ``j``'s slowest shard finishes, so the cluster
never has more than a bounded fraction of its serving capacity in
transition.  ``lockstep`` starts every shard at once (the naive policy
the benchmark compares against).

**Serving.**  The day's query units arrive evenly over
``arrival_stretch x`` the cluster maintenance makespan.  A probe routes
to the shard owning its value; a scan fans out to every shard.  Queries
that arrive *before* a shard's maintenance window opens are served
immediately from that shard's pre-transition index (the cost and
coverage are measured against the post-transition substrate, one day's
transition apart — a close proxy that keeps the single timeline
tractable); queries arriving after the window opens queue behind it.
That asymmetry is the whole point of staggering: a shard whose
transition has not started yet keeps answering at steady-state latency.
A query needing a constituent an in-place op is mutating waits for the
op or degrades (:attr:`ClusterConfig.policy`), then occupies the devices
its reads charged, first come first served per device; a unit that
charges a device no time does not queue behind it.

**Faults.**  A device failure mid-maintenance or mid-query marks the
replica failed; serving fails over to the next replica.  When every
replica of a shard is dead, its answers degrade to correct partial
results — empty, with the shard's window days enumerated as missing —
never a wrong answer.

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
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from ..core.executor import ExecutionReport, PlanExecutor
from ..core.ops import Op
from ..core.records import RecordStore
from ..core.schemes.base import WaveScheme
from ..core.staged import ChangeAborted, StagedChangeRunner, provision_spares
from ..core.wave import WaveIndex
from ..errors import (
    ClusterError,
    DegradedWindowError,
    FaultError,
    TransientIOError,
)
from ..index.config import IndexConfig
from ..index.updates import UpdateTechnique
from ..obs import CounterWindow, Histogram, MetricsRegistry
from ..sim.metrics import DayMetrics, SimulationResult
from ..sim.querygen import ProbeUnit, QueryUnit, QueryWorkload, ScanUnit, UnitOutcome
from ..sim.scheduler import ArrayPlanExecutor, OpInterval, OverlapPolicy
from ..storage.array import DiskArray
from ..storage.cost import DiskParameters
from ..storage.disk import SimulatedDisk
from ..storage.pagecache import PageCache, PageCacheSnapshot
from ..storage.stats import IOSnapshot
from ..advisor import (
    AdvisorConfig,
    CostModelPlanner,
    Design,
    DesignRouter,
    Retune,
    RetuneDecision,
    RetuneReport,
    WorkloadObserver,
    calibrate_parameters,
)
from ..advisor.observer import VALUE_TRACK_LIMIT
from .coordinator import ClusterCoordinator
from .elastic import (
    Autoscaler,
    AutoscalerDecision,
    ElasticConfig,
    ReshardReport,
    ScaleAction,
    reshard_change,
)
from .partitioner import SlotHashPartitioner, make_partitioner, partition_store
from .rebalance import RebalanceReport, move_replica
from .selfheal import (
    RebuildReport,
    ReplicaHealthMonitor,
    SelfHealConfig,
    rebuild_replica,
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
            keeps the PR 4 behaviour: failed replicas stay failed.
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
            "build new constituent indices on separate disks").
            Replicas a rebuild, split, merge or retune creates live on
            one spare device.
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

    def all_missing_days(self) -> frozenset[int]:
        """Return every day any answer lost to faults or degradation."""
        missing: set[int] = set()
        for d in self.days:
            missing |= d.missing_days
        return frozenset(missing)

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
    the day's timeline.  ``baselines`` hold that replica with its I/O and
    page-cache counters from before the day's plans ran; the day's
    bookkeeping measures its deltas from them.
    """

    day: int
    reports: tuple[ExecutionReport, ...]
    windows: tuple[tuple[float, float], ...]
    maintenance_makespan_seconds: float
    baselines: tuple[
        tuple[ShardReplica, IOSnapshot, PageCacheSnapshot | None], ...
    ]
    rebuilds: tuple[RebuildReport, ...] = ()
    rebuilds_failed: int = 0
    reshards: tuple[ReshardReport, ...] = ()
    reshards_aborted: int = 0
    reshard_deferred: str | None = None
    retunes: tuple[RetuneReport, ...] = ()
    retunes_aborted: int = 0


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
    last_completion: float = 0.0
    missing_days: set[int] = field(default_factory=set)


def _blocked_until(
    needed: set[str], arrival: float, blocking: list[OpInterval]
) -> tuple[set[str], float]:
    """Return the constituents blocked at ``arrival`` and the release.

    Under the wait policy a query re-checks after each release (a
    constituent can be mutated by several ops in one plan), so the
    returned release time is a fixed point.
    """
    release = arrival
    blocked: set[str] = set()
    changed = True
    while changed:
        changed = False
        for interval in blocking:
            if interval.target not in needed:
                continue
            if interval.start <= release < interval.end:
                blocked.add(interval.target)
                release = interval.end
                changed = True
    return blocked, release


class SparePool:
    """Per-day budgeted provisioning of spare devices.

    Replica rebuilds (:meth:`ClusterSimulation._run_healing`) and the
    elastic engine draw spares from one pool, so a
    ``spare_budget_per_day`` makes their competition explicit and
    deterministic: the engine runs at the start of the day but *defers*
    whenever a shard is under-replicated, so on a contended day the
    rebuild takes the spare and the topology change retries the next
    day.  ``acquire`` is all-or-nothing — a split needing ``2r`` devices
    either gets them all or leaves the budget untouched.

    With no budget (the default) acquisition always succeeds and the
    pool is a pass-through over the simulation's spare factory,
    preserving its behaviour (and spare ordinals) exactly.
    """

    def __init__(
        self,
        make: Callable[[], SimulatedDisk],
        *,
        budget_per_day: int | None = None,
    ) -> None:
        self._make = make
        self.budget_per_day = budget_per_day
        self._used_today = 0
        self.denied = 0

    def new_day(self) -> None:
        """Reset the day's budget."""
        self._used_today = 0

    def acquire(self, n: int = 1) -> list[SimulatedDisk] | None:
        """Provision ``n`` fresh devices, or ``None`` if over budget."""
        if n < 1:
            raise ClusterError(f"must acquire >= 1 spare, got {n}")
        if (
            self.budget_per_day is not None
            and self._used_today + n > self.budget_per_day
        ):
            self.denied += 1
            return None
        self._used_today += n
        return [self._make() for _ in range(n)]


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
        self.technique = technique
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
        self.spares = SparePool(
            self._make_spare,
            budget_per_day=(
                cfg.elastic.spare_budget_per_day
                if cfg.elastic is not None
                else None
            ),
        )
        self._autoscaler: Autoscaler | None = (
            Autoscaler(cfg.elastic)
            if cfg.elastic is not None and cfg.elastic.autoscale
            else None
        )
        self._pending_action: ScaleAction | None = None
        self._last_action_day: int | None = None
        #: Day plans pre-applied by a staged change's catch-up, keyed
        #: by ``id(scheme)`` — popped (instead of re-planning) when the
        #: day loop reaches that shard.
        self._preplanned: dict[int, list[Op]] = {}
        #: Optional hook called after maintenance/healing and before the
        #: day's serving pass — the chaos harness's injection point for
        #: mid-serve faults.  Signature: ``hook(sim, day)``.
        self.on_serving_start: Callable[["ClusterSimulation", int], None] | None = None
        self.array = DiskArray.create(
            cfg.n_devices,
            params=disk_params,
            page_cache_bytes=cfg.page_cache_bytes,
            page_size=cfg.page_size,
            device_factory=device_factory,
        )
        #: Runners of the journaled staged changes — topology changes on
        #: ``elastic``, retunes on ``advisor`` — each ``None`` while its
        #: feature is off.
        runner = partial(
            StagedChangeRunner,
            spares=self.spares,
            array=self.array,
            obs=self.obs,
            monitor=self._monitor,
        )
        self.elastic: StagedChangeRunner | None = (
            runner() if cfg.elastic is not None else None
        )
        self.advisor: StagedChangeRunner | None = (
            runner() if cfg.advisor is not None else None
        )
        index_config = index_config or IndexConfig()
        width = cfg.devices_per_replica
        self.shards: list[Shard] = []
        for shard_id in range(cfg.n_shards):
            scheme = scheme_factory()
            replicas = []
            for replica_id in range(cfg.replication):
                device_index = (replica_id * cfg.n_shards + shard_id) * width
                device = self.array.devices[device_index]
                wave = WaveIndex(device, index_config, scheme.n_indexes)
                if width == 1:
                    executor = PlanExecutor(
                        wave, shard_stores[shard_id], technique
                    )
                else:
                    executor = ArrayPlanExecutor(
                        wave,
                        shard_stores[shard_id],
                        technique,
                        array=DiskArray(
                            self.array.devices[device_index : device_index + width]
                        ),
                        rotate_creations=True,
                    )
                replicas.append(
                    ShardReplica(
                        shard_id=shard_id,
                        replica_id=replica_id,
                        device_index=device_index,
                        device=device,
                        wave=wave,
                        executor=executor,
                    )
                )
            self.shards.append(
                Shard(shard_id, scheme, shard_stores[shard_id], replicas)
            )
        self.scheme = self.shards[0].scheme
        #: Online-tuning machinery (all ``None`` when the advisor is off,
        #: keeping every hot path on its legacy branch).
        self._observer: WorkloadObserver | None = None
        self._planner: CostModelPlanner | None = None
        self.router: DesignRouter | None = None
        self._retune_queue: list[RetuneDecision] = []
        self._value_tracks: dict[int, set[Any]] = {}
        if cfg.advisor is not None:
            params = calibrate_parameters(
                store, index_config, window=self.scheme.window
            )
            self._planner = CostModelPlanner(params, cfg.advisor)
            self._observer = WorkloadObserver(
                self.obs, cfg.advisor.observe_days
            )
            if cfg.advisor.divergent:
                self.router = DesignRouter()
        self.coordinator = ClusterCoordinator(
            self.shards,
            self.partitioner,
            self.obs,
            monitor=self._monitor,
            router=self.router,
        )
        self.latency_during: Histogram = self.obs.histogram(
            "cluster.latency.during_transition"
        )
        self.latency_steady: Histogram = self.obs.histogram(
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
            shard_results=[
                SimulationResult(
                    window=self.scheme.window,
                    n_indexes=self.scheme.n_indexes,
                    scheme_name=self.scheme.name,
                    technique=technique.value,
                )
                for _ in range(cfg.n_shards)
            ],
        )
        self._started = False
        self._day_failovers = 0

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
        return self._run_day(self.window)

    def run_transition(self, day: int) -> ClusterDayStats:
        """Execute one daily transition on every shard and serve it."""
        if not self._started:
            raise ClusterError("call run_start() first")
        return self._run_day(day)

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
        """Move one replica of ``shard_id`` onto array device ``to_device``.

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
        if not 0 <= replica_id < len(shard.replicas):
            raise ClusterError(f"shard {shard_id} has no replica {replica_id}")
        replica = shard.replicas[replica_id]
        if len(replica.span) > 1:
            raise ClusterError(f"{replica.name} spans devices; it cannot move")
        if self.array.devices[to_device] is replica.device:
            raise ClusterError(
                f"{replica.name} already lives on device {to_device}"
            )
        report = move_replica(
            replica, self.array.devices[to_device], to_device
        )
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
    ) -> ScaleAction:
        """Queue a split of ``shard_id`` for the next transition day.

        With ``split_key=None`` the engine picks the median owned key
        (range partitioner) or halves the slot set (slot-hash).  At most
        one topology change is in flight at a time; a new request
        replaces any queued one.
        """
        if self.elastic is None:
            raise ClusterError(
                "elastic resharding is not enabled "
                "(set ClusterConfig.elastic)"
            )
        action = ScaleAction(
            kind="split", shard_id=shard_id, split_key=split_key,
            reason=reason,
        )
        self._pending_action = action
        return action

    def request_merge(
        self, shard_id: int, *, reason: str = "manual"
    ) -> ScaleAction:
        """Queue a merge of ``shard_id`` with its next neighbour."""
        if self.elastic is None:
            raise ClusterError(
                "elastic resharding is not enabled "
                "(set ClusterConfig.elastic)"
            )
        action = ScaleAction(kind="merge", shard_id=shard_id, reason=reason)
        self._pending_action = action
        return action

    @property
    def pending_action(self) -> ScaleAction | None:
        """Return the queued topology change, if any."""
        return self._pending_action

    def _under_replicated(self) -> bool:
        """Return whether any healable shard is below target replication."""
        selfheal = self.config.selfheal
        if self._monitor is None or selfheal is None or not selfheal.rebuild:
            return False
        target = selfheal.target_replication or self.config.replication
        return any(
            shard.primary is not None
            and len(shard.alive_replicas()) < target
            for shard in self.shards
        )

    def _run_elastic(
        self, day: int
    ) -> tuple[list[ReshardReport], int, str | None]:
        """Execute the queued topology change, if it may run today.

        Runs *before* the day's plans are drawn, so a committed change
        hands the day loop an already-caught-up topology.  An
        under-replicated shard defers the change (healing outranks
        rebalancing — the deterministic spare-contention rule); an abort
        keeps the action queued for a retry tomorrow.
        """
        reports: list[ReshardReport] = []
        aborted = 0
        deferred: str | None = None
        if (
            self.elastic is None
            or self._pending_action is None
            or day <= self.window
        ):
            return reports, aborted, deferred
        if self._under_replicated():
            self.obs.counter("cluster.elastic.deferred").inc()
            return reports, aborted, "under-replicated"
        action = self._pending_action
        try:
            report = self.elastic.run(reshard_change(self, action), day=day)
        except ChangeAborted as exc:
            return reports, 1, exc.reason
        self._pending_action = None
        self._last_action_day = day
        reports.append(report)
        return reports, aborted, deferred

    # ------------------------------------------------------------------
    # Online tuning advisor
    # ------------------------------------------------------------------

    def _observe_unit(self, shard_id: int, unit: QueryUnit) -> None:
        """Publish one served (sub)unit to the ``advisor.*`` counters."""
        prefix = f"advisor.shard{shard_id}."
        self.obs.counter(prefix + "requests").inc(unit.requests)
        if isinstance(unit, ScanUnit):
            self.obs.counter(prefix + "scans").inc(unit.requests)
            if unit.t1 == unit.t2:
                self.obs.counter(prefix + "scans_newest").inc(unit.requests)
            return
        self.obs.counter(prefix + "probes").inc(len(unit.values))
        tracked = self._value_tracks.setdefault(shard_id, set())
        for value in unit.values:
            if value in tracked or len(tracked) < VALUE_TRACK_LIMIT:
                tracked.add(value)
                self.obs.counter(f"{prefix}value.{value}").inc()
            else:
                self.obs.counter(prefix + "value.~other").inc()

    def _replica_design(
        self, shard: Shard, replica: ShardReplica
    ) -> Design:
        """Return the design a replica currently runs."""
        scheme = replica.scheme or shard.scheme
        return Design(
            scheme.name, scheme.n_indexes, replica.executor.technique.value
        )

    def _plan_retunes(self, day: int) -> None:
        """Queue accepted design switches at the day boundary."""
        planner = self._planner
        observer = self._observer
        assert planner is not None and observer is not None
        queued = {
            (d.shard_id, d.replica_id) for d in self._retune_queue
        }
        for shard in self.shards:
            obs = observer.observation(shard.shard_id)
            for replica in shard.replicas:
                if replica.failed:
                    continue
                if (shard.shard_id, replica.replica_id) in queued:
                    continue
                view = planner.replica_view(
                    obs, replica.replica_id, len(shard.replicas)
                )
                decision = planner.decide(
                    shard.shard_id,
                    replica.replica_id,
                    day,
                    self._replica_design(shard, replica),
                    view,
                )
                if decision is not None:
                    self._retune_queue.append(decision)
                    self.obs.counter("cluster.advisor.decisions").inc()

    def _run_advisor(self, day: int) -> tuple[list[RetuneReport], int]:
        """Execute queued retunes at the start of the day.

        Healing outranks retuning for spares (same deterministic rule as
        the elastic engine): an under-replicated cluster defers the whole
        queue.  A ``no-spare`` abort keeps its decision queued for
        tomorrow; any other abort drops it — the replica's cooldown keeps
        the planner from immediately re-deciding the same switch.
        """
        reports: list[RetuneReport] = []
        aborted = 0
        if (
            self.advisor is None
            or not self._retune_queue
            or day <= self.window
        ):
            return reports, aborted
        if self._under_replicated():
            self.obs.counter("cluster.advisor.deferred").inc()
            return reports, aborted
        budget = self.config.advisor.max_retunes_per_day
        requeue: list[RetuneDecision] = []
        while self._retune_queue and len(reports) + aborted < budget:
            decision = self._retune_queue.pop(0)
            try:
                reports.append(
                    self.advisor.run(Retune(self, decision), day=day)
                )
            except ChangeAborted as exc:
                aborted += 1
                if exc.reason == "no-spare":
                    requeue.append(decision)
        self._retune_queue = requeue + self._retune_queue
        return reports, aborted

    def _on_topology_changed(self, mapping: dict[int, int]) -> None:
        """Re-align per-shard bookkeeping after a committed swap.

        ``mapping`` is old shard id → new shard id for the survivors;
        parents absent from it retire (their day series moves to
        :attr:`ClusterResult.retired_shard_results`) and brand-new child
        shards start fresh series.
        """
        old = self.result.shard_results
        inverse = {new_id: old_id for old_id, new_id in mapping.items()}
        self.result.shard_results = [
            old[inverse[new_id]]
            if new_id in inverse
            else SimulationResult(
                window=self.scheme.window,
                n_indexes=self.scheme.n_indexes,
                scheme_name=self.scheme.name,
                technique=self.technique.value,
            )
            for new_id in range(len(self.shards))
        ]
        self.result.retired_shard_results.extend(
            old[old_id] for old_id in range(len(old)) if old_id not in mapping
        )
        self.result.n_shards = len(self.shards)
        self.result.partitioner = self.partitioner.describe()
        self.scheme = self.shards[0].scheme

    # ------------------------------------------------------------------
    # Self-healing (re-replication)
    # ------------------------------------------------------------------

    def _make_spare(self) -> SimulatedDisk:
        """Provision a fresh device for a replica rebuild."""
        selfheal = self.config.selfheal
        ordinal = self._spares_created
        self._spares_created += 1
        if selfheal is not None and selfheal.spare_factory is not None:
            return selfheal.spare_factory(ordinal)
        if self._device_factory is not None:
            return self._device_factory(len(self.array))
        cache = None
        if self.config.page_cache_bytes is not None:
            cache = (
                PageCache(self.config.page_cache_bytes, self.config.page_size)
                if self.config.page_size is not None
                else PageCache(self.config.page_cache_bytes)
            )
        return SimulatedDisk(self._disk_params, page_cache=cache)

    def _run_healing(
        self,
        day: int,
        plans: list[list[Op]],
        replica_plans: dict[int, list[Op]] | None = None,
    ) -> tuple[list[float], list[RebuildReport], int]:
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
        target = selfheal.target_replication or self.config.replication
        for shard in self.shards:
            donor = shard.primary
            if donor is None or len(shard.alive_replicas()) >= target:
                continue
            provisioned = provision_spares(self.spares, self.array, 1)
            if provisioned is None:
                # Spare budget spent (e.g. by a same-day topology change
                # that outran a kill landing later in the day): the
                # shard stays under-replicated and retries tomorrow.
                self.obs.counter("cluster.heal.rebuilds_deferred").inc()
                continue
            ((device_index, spare),) = provisioned
            # A retuned donor clones under its *own* design: the rebuilt
            # twin copies the donor's constituents, catches up with the
            # donor's plan, and inherits its scheme and technique.
            donor_plan = plans[shard.shard_id]
            donor_technique = donor.executor.technique
            if donor.scheme is not None and replica_plans is not None:
                donor_plan = replica_plans[id(donor.scheme)]
            try:
                replica, report = rebuild_replica(
                    shard,
                    donor,
                    spare,
                    device_index,
                    plan=donor_plan,
                    day=day,
                    technique=donor_technique,
                    monitor=monitor,
                )
            except ChangeAborted:
                # The donor is intact and partial work was swept; the
                # dead/undersized spare stays in the array as a retired
                # member and a fresh one is provisioned next day.
                failed += 1
                self.obs.counter("cluster.heal.rebuilds_failed").inc()
                continue
            replica.scheme = donor.scheme
            shard.replicas.append(replica)
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

    def _run_maintenance(
        self,
        day: int,
        plans: list[list[Op]],
        delays: list[float],
        replica_plans: dict[int, list[Op]] | None = None,
    ) -> tuple[list[ExecutionReport], list[tuple[float, float]], float]:
        """Run every shard's plan under the staggering policy.

        ``delays`` pushes a shard's start past its batch start (a rebuild
        was reading the donor's device until then).  Replicas already
        caught up to ``day`` by a rebuild keep their rebuild timeline
        instead of re-running the plan.

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
                plan = plans[shard.shard_id]
                start = max(batch_start, delays[shard.shard_id])
                metrics_replica = shard.primary or shard.replicas[0]
                shard_end = start
                for replica in shard.replicas:
                    if replica.failed:
                        replica.intervals = []
                        replica.maintenance_start = start
                        replica.maintenance_end = start
                        continue
                    if replica.caught_up_day == day:
                        shard_end = max(shard_end, replica.maintenance_end)
                        continue
                    rplan = plan
                    if (
                        replica.scheme is not None
                        and replica_plans is not None
                    ):
                        rplan = replica_plans[id(replica.scheme)]
                    if self._monitor is None:
                        report = replica.run_maintenance(rplan, start)
                    else:
                        report = replica.run_maintenance(
                            rplan, start, monitor=self._monitor
                        )
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

    def _fail_replica(self, replica: ShardReplica, reason: str) -> None:
        """Retire a replica a serving-time fault killed (failover)."""
        if self._monitor is None:
            replica.failed = True
        else:
            self._monitor.retire(replica, reason=reason)
        self._day_failovers += 1
        self.obs.counter("cluster.failovers").inc()

    def _serve_on_shard(
        self,
        shard: Shard,
        unit: QueryUnit,
        arrival: float,
        avail_pre: list[float],
        avail_post: list[float],
    ) -> tuple[UnitOutcome, float, float, float, bool]:
        """Execute ``unit`` on ``shard`` with failover.

        Returns ``(outcome, end, service_seconds, wait, degraded)``; a
        dark shard yields a synthesized empty outcome whose missing days
        enumerate what the shard would have covered.

        With self-healing enabled, replica selection honours the circuit
        breakers (an open breaker is skipped, or its cooldown waited out
        and charged to latency when nothing else can serve) and escaped
        transients are retried on the same replica under the retry
        policy — backoff charged to its device clock — before the
        request fails over.  Aborted-attempt device time and breaker
        waits are carried into the request's latency.
        """
        wait_policy = self.config.policy is OverlapPolicy.WAIT
        monitor = self._monitor
        carried = 0.0
        attempts: dict[int, int] = {}
        exhausted: set[int] = set()
        force_degraded: set[int] = set()
        while True:
            if monitor is None:
                if self.router is not None:
                    replica = self.router.choose(
                        shard,
                        unit.t1,
                        unit.t2,
                        "scan" if isinstance(unit, ScanUnit) else "probe",
                    )
                else:
                    replica = shard.primary
            else:
                replica, breaker_wait = monitor.serving_replica(
                    shard,
                    now=self._clock_base + arrival + carried,
                    exclude=exhausted,
                )
                carried += breaker_wait
            if replica is None:
                # Dark shard — or every candidate retry-exhausted for
                # this request: an honest empty answer, days enumerated.
                missing = shard.window_days(unit.t1, unit.t2)
                outcome = UnitOutcome(
                    0.0, unit.requests, frozenset(missing)
                )
                return outcome, arrival + carried, 0.0, carried, True
            wave = replica.wave
            needed = unit.needed_constituents(wave)
            blocking = [iv for iv in replica.intervals if iv.blocking]
            blocked, release = _blocked_until(needed, arrival, blocking)
            if wait_policy:
                wait = release - arrival
                degraded_names: set[str] = set()
            else:
                wait = 0.0
                degraded_names = blocked
            pre_offline = frozenset(wave.offline)
            added_offline = degraded_names - wave.offline
            wave.offline |= added_offline
            degraded_call = (
                bool(degraded_names)
                or replica.replica_id in force_degraded
            )
            span = replica.span
            clocks_before = span.clocks()
            clock_before = sum(clocks_before)
            try:
                outcome = unit.execute(wave, degraded=degraded_call)
            except TransientIOError:
                carried += span.total_clock - clock_before
                # A strict call marks the faulted constituent offline
                # before re-raising; the transient left the data intact,
                # so clear the mark before the retry.
                wave.offline &= pre_offline | added_offline
                if monitor is None:
                    self._fail_replica(replica, "serving-fault")
                    continue
                if self._retry_transient(
                    replica, attempts, exhausted,
                    now=self._clock_base + arrival + carried,
                ):
                    carried += monitor.retry.delay_before_retry(
                        attempts[replica.replica_id]
                    )
                continue
            except DegradedWindowError:
                # A strict call tripped on a constituent an earlier
                # swallowed fault left offline: re-serve degraded for an
                # honest labeled partial answer.
                carried += span.total_clock - clock_before
                force_degraded.add(replica.replica_id)
                continue
            except FaultError:
                carried += span.total_clock - clock_before
                self._fail_replica(replica, "serving-fault")
                continue
            finally:
                wave.offline -= added_offline
            newly_offline = wave.offline - pre_offline
            if newly_offline:
                # A degraded call swallows device faults into a partial
                # answer, but the wave retires the constituent it lost.
                injector = getattr(replica.device, "injector", None)
                device_dead = injector is not None and injector.device_failed
                if monitor is not None and not device_dead:
                    # Transient swallowed mid-degraded-call: the data is
                    # intact — bring the constituents back online and
                    # retry under the retry policy.
                    wave.offline -= newly_offline
                    carried += span.total_clock - clock_before
                    if self._retry_transient(
                        replica, attempts, exhausted,
                        now=self._clock_base + arrival + carried,
                    ):
                        carried += monitor.retry.delay_before_retry(
                            attempts[replica.replica_id]
                        )
                    continue
                if len(shard.alive_replicas()) > 1:
                    # With another live replica, failover beats
                    # degradation — discard the partial answer and
                    # re-serve there.
                    carried += span.total_clock - clock_before
                    self._fail_replica(replica, "serving-fault")
                    continue
            if monitor is not None:
                monitor.record_success(replica)
            ready = arrival + wait + carried
            # Before the shard's transition begins, serve from the
            # pre-transition window immediately (the staggering win).
            avail = (
                avail_pre if arrival < replica.maintenance_start else avail_post
            )
            # First come, first served per device: reads of different
            # devices proceed in parallel, and a unit that charges a
            # device no time does not queue behind it.
            end = ready
            service = 0.0
            for offset, (now, then) in enumerate(
                zip(span.clocks(), clocks_before)
            ):
                delta = now - then
                if delta <= 0:
                    continue
                device = replica.device_index + offset
                start = max(ready, avail[device])
                avail[device] = start + delta
                end = max(end, start + delta)
                service = max(service, delta)
            return outcome, end, service, wait + carried, degraded_call

    def _retry_transient(
        self,
        replica: ShardReplica,
        attempts: dict[int, int],
        exhausted: set[int],
        *,
        now: float,
    ) -> bool:
        """Account one serving-time transient; return ``True`` to retry
        the same replica (backoff charged to its device), ``False`` once
        its per-request retry budget is spent (it joins ``exhausted``)."""
        monitor = self._monitor
        assert monitor is not None
        monitor.on_transient(replica, now=now)
        n = attempts.get(replica.replica_id, 0) + 1
        attempts[replica.replica_id] = n
        if n >= monitor.retry.max_attempts:
            exhausted.add(replica.replica_id)
            return False
        replica.device.advance(monitor.retry.delay_before_retry(n))
        monitor.note_retry(n)
        return True

    # ------------------------------------------------------------------
    # Day loop: the maintenance step, the serving pass, the bookkeeping
    # ------------------------------------------------------------------

    def turn(self, day: int) -> Turn:
        """Run the cluster's maintenance step for ``day``; return what it did.

        In order: the day's spare budget resets, the queued topology
        change runs, then the queued retunes (healing outranks both for
        spares), then every shard draws its plan — the start build on the
        first turn, the day's transition after — and healing and
        maintenance run with the day posted once for the cluster.  The
        step reads no query workload and no serving state, so
        ``run_transition(day)`` with ``queries=None`` is exactly this
        plus the day's bookkeeping.
        """
        first = not self._started
        if first and day != self.window:
            raise ClusterError("call run_start() first")
        self._started = True

        def plan_for(scheme: WaveScheme) -> list[Op]:
            return list(
                scheme.start_ops() if first else scheme.transition_ops(day)
            )

        if self._monitor is not None:
            self._monitor.now = self._clock_base
        self.spares.new_day()
        # Topology changes run first: snapshots, plans, and serving all
        # see the post-swap shard list (children arrive caught up).
        reshard_reports, reshards_aborted, reshard_deferred = (
            self._run_elastic(day)
        )
        # Then queued retunes (decided at yesterday's boundary).
        retune_reports, retunes_aborted = self._run_advisor(day)
        baselines = []
        for shard in self.shards:
            replica = shard.primary or shard.replicas[0]
            span = replica.span
            baselines.append(
                (replica, span.io_snapshot(), span.cache_snapshot())
            )

        plans = []
        for shard in self.shards:
            preplanned = self._preplanned.pop(id(shard.scheme), None)
            plans.append(
                preplanned if preplanned is not None else plan_for(shard.scheme)
            )
        # Replicas the advisor retuned run their own scheme's plan (one
        # plan per scheme instance, shared by every replica bound to it —
        # the same sharing rule as the shard-level plan).
        replica_plans: dict[int, list[Op]] = {}
        for shard in self.shards:
            for replica in shard.replicas:
                scheme = replica.scheme
                if scheme is None or replica.failed:
                    continue
                if id(scheme) in replica_plans:
                    continue
                preplanned = self._preplanned.pop(id(scheme), None)
                replica_plans[id(scheme)] = (
                    preplanned if preplanned is not None else plan_for(scheme)
                )
        # The day is posted once for the cluster: the source store keeps
        # its run — and with it every shard's cut — until the last replica
        # has turned, though an in-place update keeps none.
        with self.store.holding_runs():
            delays, rebuild_reports, rebuilds_failed = self._run_healing(
                day, plans, replica_plans
            )
            reports, windows, cluster_end = self._run_maintenance(
                day, plans, delays, replica_plans
            )
        return Turn(
            day=day,
            reports=tuple(reports),
            windows=tuple(windows),
            maintenance_makespan_seconds=cluster_end,
            baselines=tuple(baselines),
            rebuilds=tuple(rebuild_reports),
            rebuilds_failed=rebuilds_failed,
            reshards=tuple(reshard_reports),
            reshards_aborted=reshards_aborted,
            reshard_deferred=reshard_deferred,
            retunes=tuple(retune_reports),
            retunes_aborted=retunes_aborted,
        )

    def _run_day(self, day: int) -> ClusterDayStats:
        """Turn the day, serve its queries, and book it."""
        self._day_failovers = 0
        heal_window = self.obs.window(
            "cluster.heal.retries", "cluster.heal.breaker_opens"
        )
        turn = self.turn(day)
        if self.on_serving_start is not None:
            self.on_serving_start(self, day)
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
        avail_pre = [0.0] * len(self.array)
        avail_post = [0.0] * len(self.array)
        for shard in self.shards:
            for replica in shard.replicas:
                for offset, until in enumerate(replica.busy_until()):
                    avail_post[replica.device_index + offset] = until
        for i, unit in enumerate(units):
            arrival = horizon * i / len(units)
            ends: list[float] = []
            services: list[float] = []
            unit_missing: set[int] = set()
            unit_degraded = False
            for shard_id, subunit in self._split_unit(unit):
                if self._observer is not None:
                    self._observe_unit(shard_id, subunit)
                outcome, end, service, _wait, was_degraded = (
                    self._serve_on_shard(
                        self.shards[shard_id],
                        subunit,
                        arrival,
                        avail_pre,
                        avail_post,
                    )
                )
                served.query_seconds[shard_id] += outcome.seconds
                served.requests[shard_id] += subunit.requests
                ends.append(end)
                services.append(service)
                unit_missing |= outcome.missing_days
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
        return served

    def _book(
        self, turn: Turn, served: _Served, heal_window: CounterWindow
    ) -> ClusterDayStats:
        """Record the day: per-shard metrics, the autoscaler's and the
        advisor's day-boundary decisions, and the day's stats."""
        day = turn.day
        for shard_id, (replica, io_before, cache_before) in enumerate(
            turn.baselines
        ):
            span = replica.span
            cache_after = span.cache_snapshot()
            report = turn.reports[shard_id]
            wave = replica.wave
            self.result.shard_results[shard_id].days.append(
                DayMetrics(
                    day=day,
                    seconds=report.seconds,
                    query_seconds=served.query_seconds[shard_id],
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
            if decision.queued is not None and self._pending_action is None:
                self._pending_action = decision.queued
                self.obs.counter("cluster.elastic.proposed").inc()

        # Day boundary: roll the observation window forward and queue
        # any retune decisions for execution at the start of tomorrow.
        if self._observer is not None:
            self._observer.end_day()
            self._plan_retunes(day)
        designs: dict[str, str] | None = None
        if self.config.advisor is not None:
            designs = {
                replica.name: (
                    f"{replica.scheme.name}/{replica.scheme.n_indexes}"
                )
                for shard in self.shards
                for replica in shard.replicas
                if replica.scheme is not None
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
            failovers=self._day_failovers,
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

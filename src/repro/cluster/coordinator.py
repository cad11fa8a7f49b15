"""Scatter-gather query routing over the shard set.

The :class:`ClusterCoordinator` is the cluster's query front door.  It
speaks the same request shapes as the single wave index's batched
serving APIs (:meth:`~repro.core.wave.WaveIndex.probe_many` /
:meth:`~repro.core.wave.WaveIndex.scan_many`): probes are routed to the
one shard owning each value (scatter), scans fan out to every shard, and
per-shard answers are reassembled in request order (gather) with the
per-shard :class:`~repro.core.queries.BatchCostSummary`\\ s merged into a
cluster-level :class:`ClusterCostSummary` when the bill is first read.

The one serving rule.  Every answer the cluster gives — a coordinator
batch, or a unit of the simulated day loop
(:meth:`~repro.cluster.sim.ClusterSimulation.day_steps`) — runs through
:meth:`ClusterCoordinator._serve`, shard by shard:

=============  ==========================================================
strict call    while another live replica not excluded for the request
               remains: failover beats degradation
degraded call  on the last one, with the caller's ``degraded`` flag
stale mark     (:class:`~repro.errors.DegradedWindowError`) the replica is
               excluded for the request, never retired
transient      raised, or swallowed by a degraded call on a live device:
               its offline marks are cleared; retried under the monitor
               (backoff charged to the device) until the request's budget
               is spent, then excluded; retired without a monitor
dead device    raised, or swallowed (``device.failed``): retired — it
               leaves ``shard.replicas`` (:meth:`Shard.retire`, reason
               ``serving-fault``) — and one failover counted
no replica     an empty answer, its window days in ``missing_days``
               (partial, never wrong); once none is left the shard is
               dark, its days the window its last replica held, and it
               is in ``shards_unavailable``
breaker clock  the caller's ``now`` (default ``monitor.now``) plus the
               attempt time already charged
aborted time   a dying attempt's charge over the replica's whole span,
               plus backoff and breaker waits
=============  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Any, Sequence

from ..core.queries import (
    BatchCostSummary,
    BilledBatch,
    ProbeResult,
    ScanResult,
)
from ..errors import (
    ClusterError,
    DegradedWindowError,
    FaultError,
    TransientIOError,
)
from ..obs import MetricsRegistry
from .partitioner import Partitioner
from .shard import Shard, ShardReplica

if TYPE_CHECKING:
    from ..advisor.router import DesignRouter
    from .selfheal import ReplicaHealthMonitor


@dataclass(frozen=True)
class ClusterCostSummary:
    """Cluster-level accounting for one scatter-gather batch.

    ``serial_seconds`` sums every shard's device time (single-device
    equivalent work); ``elapsed_seconds`` is the slowest shard's time —
    shards read distinct devices, so the batch completes when the last
    one does.  Both include failover overhead: ``aborted_seconds`` is
    the device time the batch spent on attempts that died mid-answer
    (the dying replica's charged reads plus any retry backoff), which a
    real client waits through before the surviving replica's answer
    lands, so it counts toward the shard's elapsed contribution too.
    ``per_shard`` keeps each shard's own
    :class:`~repro.core.queries.BatchCostSummary` for drill-down.
    """

    requests: int
    serial_seconds: float
    elapsed_seconds: float
    seeks: float
    bytes_read: int
    failovers: int
    shards_queried: int
    shards_unavailable: tuple[int, ...]
    missing_days: frozenset[int]
    per_shard: tuple[tuple[int, BatchCostSummary], ...]
    aborted_seconds: float = 0.0

    @property
    def complete(self) -> bool:
        """Return ``True`` when no shard's days were lost."""
        return not self.missing_days


class ClusterBatchResult(BilledBatch):
    """Per-request merged results, and the :class:`ClusterCostSummary`
    built on the first :attr:`summary` read from what the batch kept
    when it ended: the per-shard batches (whose own bills are read
    then), the dark shards, each shard's aborted seconds and the
    batch's failover count."""

    __slots__ = ()

    @property
    def seconds(self) -> float:
        """Return the batch's summed (serial-equivalent) seconds."""
        return self.summary.serial_seconds


class ClusterCoordinator:
    """Routes queries across shards and merges their answers.

    Args:
        shards: The cluster's shards, in shard-id order.
        partitioner: The same partitioner the stores were split with —
            probe routing must agree with data placement.
        metrics: Optional registry; the coordinator publishes
            ``cluster.probes`` / ``cluster.scans`` / ``cluster.failovers``
            / ``cluster.partial_answers`` counters into it.
        monitor: Optional :class:`~repro.cluster.selfheal.ReplicaHealthMonitor`;
            with one, the breakers pick the replica and transients retry.
        router: Optional :class:`~repro.advisor.router.DesignRouter`; with
            no ``monitor`` it picks the divergently tuned replica whose
            design fits each batch.  Failover is the same either way.
    """

    def __init__(
        self,
        shards: Sequence[Shard],
        partitioner: Partitioner,
        metrics: MetricsRegistry | None = None,
        *,
        monitor: "ReplicaHealthMonitor | None" = None,
        router: "DesignRouter | None" = None,
    ) -> None:
        if len(shards) != partitioner.n_shards:
            raise ClusterError(
                f"partitioner covers {partitioner.n_shards} shards, "
                f"got {len(shards)}"
            )
        self.shards = list(shards)
        self.partitioner = partitioner
        self.obs = metrics or MetricsRegistry()
        self.monitor = monitor
        self.router = router
        self.topology_version = 0
        #: Failovers since construction; a batch reports its own delta.
        self.failovers = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def swap_topology(
        self, shards: Sequence[Shard], partitioner: Partitioner
    ) -> int:
        """Atomically install a new shard list and routing table.

        The elastic engine's commit point: every query batch routed after
        this call sees the new partitioner and shard set together (the
        two are validated against each other first, so a torn swap —
        routing table for ``k+1`` shards over a ``k``-shard list — is
        impossible).  Returns the new :attr:`topology_version`; the
        version is monotonic, so bench reports can correlate per-day
        stats with the routing table that served them.
        """
        if len(shards) != partitioner.n_shards:
            raise ClusterError(
                f"partitioner covers {partitioner.n_shards} shards, "
                f"got {len(shards)}"
            )
        for i, shard in enumerate(shards):
            if shard.shard_id != i:
                raise ClusterError(
                    f"shard at position {i} carries id {shard.shard_id}; "
                    f"ids must be renumbered before the swap"
                )
        self.shards = list(shards)
        self.partitioner = partitioner
        self.topology_version += 1
        self.obs.counter("cluster.topology.swaps").inc()
        return self.topology_version

    # ------------------------------------------------------------------
    # Failover primitive
    # ------------------------------------------------------------------

    def _serve(
        self,
        shard: Shard,
        call,
        *,
        degraded: bool = True,
        route: tuple[int, int, str] | None = None,
        now: float | None = None,
    ):
        """Run ``call(replica, degraded)`` on the shard under the one
        serving rule (module docstring).

        ``now`` is the caller's clock (default ``monitor.now``).  ``route``
        — ``(t1, t2, kind)`` — lets an attached
        :class:`~repro.advisor.router.DesignRouter` pick among divergently
        tuned replicas when no health monitor owns the choice; the
        batch methods build it only when a router is attached.  Returns
        ``(outcome, replica, aborted_seconds)``, or ``(None, None,
        aborted_seconds)`` when no replica can serve.  An attempt that
        answers first time makes no retry table and no exclusion set, and
        serves from the shard's live replicas as they are.
        """
        monitor = self.monitor
        if now is None:
            now = monitor.now if monitor is not None else 0.0
        aborted = 0.0
        # Retry counts and exclusions are made by the first attempt that
        # fails: an answer on the first try needs neither.
        attempts: dict[int, int] | None = None
        exclude: frozenset[int] = frozenset()
        while True:
            candidates = shard.replicas
            if exclude:
                candidates = [
                    r for r in candidates if r.replica_id not in exclude
                ]
            if monitor is not None:
                replica, breaker_wait = monitor.serving_replica(
                    shard, now=now + aborted, exclude=exclude
                )
                aborted += breaker_wait
            elif self.router is not None and route is not None:
                replica = self.router.choose(
                    shard, *route, candidates=candidates
                )
            else:
                replica = candidates[0] if candidates else None
            if replica is None:
                return None, None, aborted
            wave = replica.wave
            before = replica.clock
            before_offline = frozenset(wave.offline)
            try:
                outcome = call(replica, degraded and len(candidates) == 1)
            except DegradedWindowError:
                fault: type[Exception] = DegradedWindowError
            except TransientIOError:
                fault = TransientIOError
            except FaultError:
                fault = FaultError
            else:
                if wave.offline == before_offline:
                    if monitor is not None:
                        monitor.record_success(replica)
                    return outcome, replica, aborted
                # The degraded call swallowed a fault into a partial
                # answer: it is the fault it would have raised.
                fault = FaultError if replica.device_failed else TransientIOError
            aborted += replica.clock - before
            if fault is DegradedWindowError:
                # A stale offline mark: another replica may hold the
                # constituent; this one stays in service.
                exclude |= {replica.replica_id}
                continue
            if fault is TransientIOError:
                # The data is intact: clear the marks the fault left.
                wave.offline &= before_offline
            if fault is FaultError or monitor is None:
                self._fail_over(shard, replica)
                continue
            monitor.on_transient(replica, now=now + aborted)
            if attempts is None:
                attempts = {}
            n = attempts.get(replica.replica_id, 0) + 1
            attempts[replica.replica_id] = n
            if n >= monitor.retry.max_attempts:
                exclude |= {replica.replica_id}
                continue
            delay = monitor.retry.delay_before_retry(n)
            replica.device.advance(delay)
            aborted += delay
            monitor.note_retry(n)

    def _fail_over(self, shard: Shard, replica: ShardReplica) -> None:
        """Retire a replica whose answer died; count the failover."""
        shard.retire(replica, self.monitor, reason="serving-fault")
        self.obs.counter("cluster.failovers").inc()
        self.failovers += 1

    # ------------------------------------------------------------------
    # Batched scatter-gather
    # ------------------------------------------------------------------

    def probe_many(
        self,
        requests: Sequence[tuple[Any, int, int]],
        *,
        degraded: bool = True,
    ) -> ClusterBatchResult:
        """Batched ``TimedIndexProbe`` across the cluster.

        Each ``(value, t1, t2)`` request is routed to the shard owning
        ``value``; requests sharing a shard form one
        :meth:`~repro.core.wave.WaveIndex.probe_many` batch there, so the
        per-shard amortization (value dedup, offset-ordered bucket reads)
        is preserved.  Results come back in request order; each is
        exactly what the owning shard's wave index answered, or an empty
        result with ``missing_days`` set when the shard is dark.  The
        batch keeps its shards' batches, dark shards, aborted seconds and
        failover count, and builds its :class:`ClusterCostSummary` (and
        the shards' bills) on the first ``summary`` read, so serving,
        which never reads a bill, builds none.
        """
        specs = list(requests)
        n = len(specs)
        self.obs.counter("cluster.probes").inc(n)
        by_shard: dict[int, list[int]] = {}
        shard_ids = self.partitioner.shards_for_many(
            [value for value, _t1, _t2 in specs]
        )
        for i, shard_id in enumerate(shard_ids):
            by_shard.setdefault(shard_id, []).append(i)

        failovers = self.failovers
        answers: list[ProbeResult | None] = [None] * n
        batches: list[tuple[int, BilledBatch]] = []
        dark: list[int] = []
        aborted: dict[int, float] = {}
        partial = False
        for shard_id in sorted(by_shard):
            shard = self.shards[shard_id]
            indices = by_shard[shard_id]
            shard_specs = [specs[i] for i in indices]
            batch, _replica, lost = self._serve(
                shard,
                lambda r, d: r.wave.probe_many(shard_specs, degraded=d),
                degraded=degraded,
                route=(
                    min(t1 for _v, t1, _t2 in shard_specs),
                    max(t2 for _v, _t1, t2 in shard_specs),
                    "probe",
                )
                if self.router is not None
                else None,
            )
            if lost > 0.0:
                aborted[shard_id] = lost
            if batch is None:
                dark.append(shard_id)
                for i in indices:
                    _value, t1, t2 = specs[i]
                    missing = frozenset(shard.window_days(t1, t2))
                    partial = partial or bool(missing)
                    answers[i] = ProbeResult((), 0.0, 0, frozenset(), missing)
                continue
            batches.append((shard_id, batch))
            for i, result in zip(indices, batch.results):
                answers[i] = result
                if result.missing_days:
                    partial = True
        if partial:
            self.obs.counter("cluster.partial_answers").inc()
        results = tuple(answers)
        return ClusterBatchResult(
            results,
            (
                _cluster_bill, results, batches, dark, aborted,
                self.failovers - failovers,
            ),
        )

    def scan_many(
        self,
        requests: Sequence[tuple[int, int]],
        *,
        degraded: bool = True,
    ) -> ClusterBatchResult:
        """Batched ``TimedSegmentScan`` across the cluster.

        Scans are value-oblivious, so every request fans out to every
        shard; each merged result concatenates the shards' entries in
        shard order, sums their seconds, and unions their coverage.
        The bill is kept and built as :meth:`probe_many`'s is.
        """
        specs = list(requests)
        self.obs.counter("cluster.scans").inc(len(specs))
        failovers = self.failovers
        batches: list[tuple[int, BilledBatch]] = []
        dark: list[int] = []
        aborted: dict[int, float] = {}
        answers: list[list[ScanResult]] = [[] for _ in specs]
        dark_missing: list[set[int]] = [set() for _ in specs]
        for shard in self.shards:
            batch, _replica, lost = self._serve(
                shard,
                lambda r, d: r.wave.scan_many(specs, degraded=d),
                degraded=degraded,
                route=(
                    min(t1 for t1, _t2 in specs),
                    max(t2 for _t1, t2 in specs),
                    "scan",
                )
                if specs and self.router is not None
                else None,
            )
            if lost > 0.0:
                aborted[shard.shard_id] = lost
            if batch is None:
                dark.append(shard.shard_id)
                for i, (t1, t2) in enumerate(specs):
                    dark_missing[i] |= shard.window_days(t1, t2)
                continue
            batches.append((shard.shard_id, batch))
            for shard_answers, result in zip(answers, batch.results):
                shard_answers.append(result)
        results = tuple(
            _merge_scans(answers[i], dark_missing[i]) for i in range(len(specs))
        )
        if any(result.missing_days for result in results):
            self.obs.counter("cluster.partial_answers").inc()
        return ClusterBatchResult(
            results,
            (
                _cluster_bill, results, batches, dark, aborted,
                self.failovers - failovers,
            ),
        )

    # ------------------------------------------------------------------
    # Single-request conveniences
    # ------------------------------------------------------------------

    def probe(
        self, value: Any, t1: int, t2: int, *, degraded: bool = True
    ) -> ProbeResult:
        """Route one timed probe to its owning shard."""
        return self.probe_many([(value, t1, t2)], degraded=degraded).results[0]

    def scan(self, t1: int, t2: int, *, degraded: bool = True) -> ScanResult:
        """Fan one timed scan out to every shard and merge the answers."""
        return self.scan_many([(t1, t2)], degraded=degraded).results[0]


def _cluster_bill(
    results: tuple[Any, ...],
    batches: list[tuple[int, BilledBatch]],
    dark: list[int],
    aborted: dict[int, float],
    failovers: int,
) -> ClusterCostSummary:
    """Build a cluster batch's bill from what the batch kept when it ended.

    ``batches`` are the answering shards' batches in the order they were
    served, ``dark`` the shards no replica answered, ``aborted`` each
    shard's device time spent on attempts that died (only shards that
    lost any), and the coverage the answers lost is read off ``results``.
    """
    per_shard = tuple((shard_id, batch.summary) for shard_id, batch in batches)
    # Aborted attempts are sequential with the surviving replica's
    # answer on the same shard, so they stretch that shard's elapsed
    # contribution as well as the serial total; a dark shard's futile
    # attempts still occupy elapsed time.
    totals = [s.seconds + aborted.get(sid, 0.0) for sid, s in per_shard]
    totals.extend(aborted.get(sid, 0.0) for sid in dark)
    aborted_total = sum(aborted.values())
    missing: set[int] = set()
    for result in results:
        missing |= result.missing_days
    return ClusterCostSummary(
        requests=len(results),
        serial_seconds=sum(s.seconds for _, s in per_shard) + aborted_total,
        elapsed_seconds=max(totals, default=0.0),
        seeks=sum(s.seeks for _, s in per_shard),
        bytes_read=sum(s.bytes_read for _, s in per_shard),
        failovers=failovers,
        shards_queried=len(per_shard),
        shards_unavailable=tuple(dark),
        missing_days=frozenset(missing),
        per_shard=per_shard,
        aborted_seconds=aborted_total,
    )


def _merge_scans(answers: list[ScanResult], dark_days: set[int]) -> ScanResult:
    """Merge per-shard scan answers for one request.

    Shards partition the *value* space, so every shard contributes to
    every day: a day any shard lost (degraded or dark) stays missing in
    the merged answer even when other shards covered it — their postings
    for that day are present, but the day's answer is incomplete.  The
    merged answer is cut from the runs its shards' answers were, when
    every one of them says which.
    """
    entries: list = []
    covered: set[int] = set()
    missing: set[int] = set(dark_days)
    seconds = 0.0
    scanned = 0
    for answer in answers:
        entries.extend(answer.entries)
        covered |= answer.covered_days
        missing |= answer.missing_days
        seconds += answer.seconds
        scanned += answer.indexes_scanned
    cut_from = [answer.parts for answer in answers]
    return ScanResult(
        tuple(entries),
        seconds,
        scanned,
        frozenset(covered - missing),
        frozenset(missing),
        None if None in cut_from else tuple(chain.from_iterable(cut_from)),
    )


__all__ = [
    "ClusterBatchResult",
    "ClusterCoordinator",
    "ClusterCostSummary",
]

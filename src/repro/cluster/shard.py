"""Shards and shard replicas: one wave index per key-space slice.

A :class:`Shard` owns one slice of the partitioned key space: its view
of the cluster's record store (the slice's postings of every daily batch;
:class:`~repro.cluster.partitioner.ShardView`), its own scheme instance, and
``r`` :class:`ShardReplica`\\ s — wave indexes of the same data on
distinct devices of the cluster's :class:`~repro.storage.array.DiskArray`.
Every replica runs its own planner's plan against its own devices — the
shard's planner, unless a retune gave it one of its own — so any replica
can serve the shard's queries; the first non-failed replica is the
*primary*, and the coordinator fails over down the replica list when a
device dies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from ..core.boundary import Boundary, Steps
from ..core.executor import ExecutionReport, PlanExecutor
from ..core.ops import AddOp, DeleteOp, Op, UpdateOp
from ..core.records import RecordStore
from ..core.recovery import restore_op_target, sweep_orphan_extents
from ..core.staged import retry_transients
from ..core.schemes.base import WaveScheme
from ..core.wave import WaveIndex
from ..errors import DeviceFailure, FaultError, TransientIOError
from ..index.updates import UpdateTechnique
from ..sim.metrics import SimulationResult
from ..sim.scheduler import OpInterval
from ..storage.array import DiskArray
from ..storage.disk import SimulatedDisk

if TYPE_CHECKING:
    from ..advisor.observer import TrafficWindow
    from .selfheal import ReplicaHealthMonitor


class BreakerState(enum.Enum):
    """Per-replica circuit-breaker states (see DESIGN.md for the diagram)."""

    LIVE = "live"
    SUSPECT = "suspect"
    OPEN = "open"
    HALF_OPEN = "half_open"
    RETIRED = "retired"


@dataclass
class ReplicaHealth:
    """One replica's breaker state and failure bookkeeping.

    ``cooldown_s`` is how long the breaker stays open once it opens: the
    breaker's base cooldown, escalated by each failed half-open probe;
    ``0.0`` until the breaker first opens, which raises it to the base.
    """

    state: BreakerState = BreakerState.LIVE
    consecutive_failures: int = 0
    opened_at: float = 0.0
    cooldown_s: float = 0.0
    opens: int = 0
    transients: int = 0

    def reopen_at(self) -> float:
        """Return the simulated time an open breaker half-opens."""
        return self.opened_at + self.cooldown_s


@dataclass(eq=False)
class ShardReplica:
    """One copy of a shard's wave index on devices of the array.

    However it is made — the first build, the healer's rebuild, a split
    or merge, a retune — a replica holds the same three things: its
    planner, :attr:`scheme`; a
    :class:`~repro.core.executor.PlanExecutor` over its span; and that
    executor's store, a view of the cluster's source store.  The
    replicas of a shard share the shard's planner until a retune gives
    one of them its own.

    A replica lives on :attr:`device` (array index :attr:`device_index`)
    and, when its executor's span is wider, on the devices from there on,
    rotating its index creations over them (:attr:`span`).

    ``intervals`` / ``maintenance_start`` / ``maintenance_end`` describe
    the replica's most recent maintenance run on the cluster's shared
    day timeline (absolute seconds); the serving pass consults them to
    decide whether a query waits, degrades, or is served from the
    pre-transition state.

    A replica compares and hashes as the object (``eq=False``): its
    breaker, its retune cooldown and a retune queued for it follow it
    across a split or merge that renumbers its shard.
    """

    shard_id: int
    replica_id: int
    device_index: int
    device: SimulatedDisk
    wave: WaveIndex
    executor: PlanExecutor
    #: The planner whose plans the replica runs.  The day loop draws one
    #: plan a day per planner, shared by every replica bound to it.
    scheme: WaveScheme
    failed: bool = False
    intervals: list[OpInterval] = field(default_factory=list)
    maintenance_start: float = 0.0
    maintenance_end: float = 0.0
    #: Day a rebuilt, resharded or retuned replica already incorporated
    #: via catch-up replay; the maintenance pass skips it for that day.
    #: ``None`` for replicas built the normal way.
    caught_up_day: int | None = None
    #: The replica's circuit breaker, driven by the cluster's
    #: :class:`~repro.cluster.selfheal.ReplicaHealthMonitor`.
    health: ReplicaHealth = field(default_factory=ReplicaHealth)

    @property
    def name(self) -> str:
        """Return a display name (``s0/r1``)."""
        return f"s{self.shard_id}/r{self.replica_id}"

    @property
    def span(self) -> DiskArray:
        """Return the devices holding this replica's indexes, in array
        order from :attr:`device_index` on (the executor's span)."""
        return self.executor.span

    @property
    def clock(self) -> float:
        """Return the span's summed device clocks (what an attempt is
        billed on)."""
        return self.executor.span.total_clock

    @property
    def device_failed(self) -> bool:
        """Return ``True`` once a device of the span has failed for good."""
        return any(device.failed for device in self.span.devices)

    def busy_until(self) -> list[float]:
        """Return when each device of the span finishes today's maintenance.

        One device, or a span with no intervals laid (a rebuild or a
        retune sets its end without laying any), is busy until the
        replica's maintenance ends; otherwise a spanning replica's devices
        come free op by op.
        """
        n_devices = len(self.span)
        if n_devices == 1 or not self.intervals:
            return [self.maintenance_end] * n_devices
        until = [self.maintenance_start] * n_devices
        for interval in self.intervals:
            for device in interval.devices:
                until[device - self.device_index] = interval.end
        return until

    def _op_blocks_queries(self, op: Op) -> bool:
        """Return ``True`` if executing ``op`` makes its target unreadable.

        Only in-place mutation of a live constituent blocks; shadowing
        swaps atomically and rebuilds leave the old version serving.
        """
        if self.executor.technique is not UpdateTechnique.IN_PLACE:
            return False
        return isinstance(
            op, (AddOp, DeleteOp, UpdateOp)
        ) and self.wave.is_constituent(op.target)

    def maintenance_steps(
        self,
        plan: list[Op],
        start: float,
        *,
        day: int,
        monitor: "ReplicaHealthMonitor | None" = None,
    ) -> Steps:
        """Execute ``plan`` on this replica's span, starting at ``start``;
        return its :class:`~repro.core.executor.ExecutionReport`.

        Yields an ``"op"`` :class:`~repro.core.boundary.Boundary` before
        each op (``ordinal`` = ops done).  Op for op this performs exactly
        what :meth:`~repro.core.executor.PlanExecutor.execute` performs (reset
        high-water, run ops in order, read the peak afterwards) — that
        identity is what makes the ``k=1`` cluster bit-identical to the
        old serialized driver — while additionally laying each op on the
        cluster timeline as an :class:`~repro.sim.scheduler.OpInterval`
        as long as the time it charged across the span.

        Without a ``monitor``, any :class:`~repro.errors.FaultError` (the
        device died mid-plan) marks the replica failed and stops its
        plan; surviving replicas of the shard keep the shard serving.
        With one, faults are classified: escaped transients are retried
        under the monitor's retry policy (the op's partially-mutated
        target is first restored from the record store so the re-run is
        idempotent, with repair I/O and backoff charged to this device's
        clock); exhaustion or a :class:`~repro.errors.DeviceFailure`
        retires the replica through the monitor.
        """
        report = ExecutionReport()
        self.intervals = []
        self.maintenance_start = start
        cursor = start
        span = self.span
        span.reset_high_water()
        devices = tuple(span.devices)
        for i, op in enumerate(plan):
            yield Boundary(
                day, "op", type(op).__name__, i, self.shard_id,
                self.replica_id, devices,
            )
            before = span.clocks()
            blocking = self._op_blocks_queries(op)
            if monitor is None:
                try:
                    self.executor.execute_op(op, report)
                except FaultError:
                    self.failed = True
                    break
            else:
                if not self._execute_op_healed(
                    op, report, monitor, now=monitor.now + cursor
                ):
                    break
            deltas = [now - then for now, then in zip(span.clocks(), before)]
            duration = sum(deltas)
            self.intervals.append(
                OpInterval(
                    op=op,
                    target=getattr(op, "target", ""),
                    devices=tuple(
                        self.device_index + offset
                        for offset, delta in enumerate(deltas)
                        if delta > 0
                    ),
                    start=cursor,
                    end=cursor + duration,
                    blocking=blocking,
                )
            )
            cursor += duration
        report.peak_bytes = span.high_water_bytes
        self.maintenance_end = cursor
        return report

    def _execute_op_healed(
        self,
        op: Op,
        report: ExecutionReport,
        monitor: "ReplicaHealthMonitor",
        *,
        now: float,
    ) -> bool:
        """Run one op with cluster-level retry; return ``False`` if the
        replica was retired.

        Maintenance ops are not idempotent, so a blind re-run after a
        mid-op transient would double-apply: each retry first sweeps any
        orphaned partial work and restores the op's target from the
        record store over its pre-op day-set (the same repair rule
        journal recovery uses), making the re-run safe.  Every escaped
        transient counts against the replica's breaker.
        """
        pre_days = self.wave.days_by_name()

        def attempt() -> None:
            try:
                self.executor.execute_op(op, report)
            except TransientIOError:
                monitor.on_transient(self, now=now)
                raise

        def repair() -> None:
            try:
                sweep_orphan_extents(self.wave)
                restore_op_target(self.wave, self.executor.store, op, pre_days)
            except FaultError as exc:
                raise _RepairFailed from exc

        try:
            retry_transients(attempt, self.wave, monitor, repair)
        except TransientIOError:
            reason = "flaky-maintenance"
        except DeviceFailure:
            reason = "device-failure"
        except _RepairFailed:
            reason = "repair-failed"
        else:
            monitor.record_success(self)
            return True
        monitor.retire(self, reason=reason)
        return False


class _RepairFailed(Exception):
    """The repair before a retry hit a fault: the replica retires."""


class Shard:
    """One key-space slice: its store, its planner, and its replicas.

    :attr:`store` is a view of the cluster's source store under the
    partitioner the shard was made under (the source itself on a
    one-shard cluster); :attr:`scheme` is the planner its replicas share
    until a retune gives one of them its own.

    ``shard_id`` is the shard's routing position, renumbered by the swap
    of a split or merge; a queued split or merge holds the shard itself.
    Its day :attr:`series` goes with it, into
    :attr:`~repro.cluster.sim.ClusterResult.retired_shard_results` once a
    topology change replaces it.  On an advised cluster :attr:`traffic`
    is the shard's own observation window (``None`` otherwise); the
    shards a topology change creates start from their parents' windows.
    """

    def __init__(
        self,
        shard_id: int,
        scheme: WaveScheme,
        store: RecordStore,
        replicas: list[ShardReplica],
    ) -> None:
        if not replicas:
            raise ValueError(f"shard {shard_id} needs at least one replica")
        self.shard_id = shard_id
        self.scheme = scheme
        self.store = store
        self.replicas = replicas
        self.series = SimulationResult(
            window=scheme.window,
            n_indexes=scheme.n_indexes,
            scheme_name=scheme.name,
            technique=replicas[0].executor.technique.value,
        )
        self.traffic: TrafficWindow | None = None

    def alive_replicas(self) -> list[ShardReplica]:
        """Return the replicas still able to serve, primary first."""
        return [r for r in self.replicas if not r.failed]

    @property
    def primary(self) -> ShardReplica | None:
        """Return the serving replica (``None`` when the shard is dark)."""
        for replica in self.replicas:
            if not replica.failed:
                return replica
        return None

    @property
    def available(self) -> bool:
        """Return ``True`` while at least one replica can serve."""
        return self.primary is not None

    def window_days(self, t1: int, t2: int) -> set[int]:
        """Return the days in ``[t1, t2]`` this shard's window covers.

        Computed from the replicas' in-memory time-set metadata, which
        survives device failure — a dark shard can still *enumerate* the
        days its answers would have covered, which is what turns a dead
        device into a correct partial result instead of a wrong one.
        """
        days: set[int] = set()
        for replica in self.replicas:
            for index in replica.wave.live_constituents():
                days.update(d for d in index.time_set if t1 <= d <= t2)
            if days:
                break
        return days

"""Shards and shard replicas: one wave index per key-space slice.

A :class:`Shard` owns one slice of the partitioned key space: its view
of the cluster's record store (the slice's postings of every daily batch;
:class:`~repro.cluster.partitioner.ShardView`), its own scheme instance, and
``r`` :class:`ShardReplica`\\ s — identical wave indexes on distinct
devices of the cluster's :class:`~repro.storage.array.DiskArray`.  Every
replica executes the same maintenance plan against its own device, so
any replica can serve the shard's queries; the first non-failed replica
is the *primary*, and the coordinator fails over down the replica list
when a device dies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from ..core.executor import ExecutionReport, PlanExecutor
from ..core.ops import AddOp, DeleteOp, Op, UpdateOp
from ..core.records import RecordStore
from ..core.recovery import restore_op_target, sweep_orphan_extents
from ..core.schemes.base import WaveScheme
from ..core.wave import WaveIndex
from ..errors import DeviceFailure, FaultError, TransientIOError
from ..index.updates import UpdateTechnique
from ..sim.scheduler import ArrayPlanExecutor, OpInterval
from ..storage.array import DiskArray
from ..storage.disk import SimulatedDisk

if TYPE_CHECKING:
    from .selfheal import ReplicaHealthMonitor


@dataclass
class ShardReplica:
    """One copy of a shard's wave index on devices of the array.

    A replica lives on :attr:`device` (array index :attr:`device_index`),
    or — with an :class:`~repro.sim.scheduler.ArrayPlanExecutor` — spans
    the devices from there on and rotates its index creations over them
    (:attr:`span`).

    ``intervals`` / ``maintenance_start`` / ``maintenance_end`` describe
    the replica's most recent maintenance run on the cluster's shared
    day timeline (absolute seconds); the serving pass consults them to
    decide whether a query waits, degrades, or is served from the
    pre-transition state.
    """

    shard_id: int
    replica_id: int
    device_index: int
    device: SimulatedDisk
    wave: WaveIndex
    executor: PlanExecutor
    failed: bool = False
    intervals: list[OpInterval] = field(default_factory=list)
    maintenance_start: float = 0.0
    maintenance_end: float = 0.0
    #: Day a rebuilt replica already incorporated via catch-up replay
    #: (its rebuild included the day's plan); the maintenance pass skips
    #: it for that day.  ``None`` for replicas built the normal way.
    caught_up_day: int | None = None
    #: A replica the advisor retuned carries its *own* scheme instance —
    #: a divergent (scheme, n) design of the same shard data — and runs
    #: that scheme's plans instead of the shard-level plan.  ``None``
    #: (every replica built the normal way) means the shard's scheme.
    scheme: WaveScheme | None = None

    @property
    def name(self) -> str:
        """Return a display name (``s0/r1``)."""
        return f"s{self.shard_id}/r{self.replica_id}"

    @property
    def span(self) -> DiskArray:
        """Return the devices holding this replica's indexes, in array
        order from :attr:`device_index` on."""
        if isinstance(self.executor, ArrayPlanExecutor):
            return self.executor.array
        return DiskArray([self.device])

    def busy_until(self) -> list[float]:
        """Return when each device of the span finishes today's maintenance.

        One device is busy until the replica's maintenance ends (a rebuild
        or a retune sets that end without laying intervals); a spanning
        replica's devices come free op by op.
        """
        n_devices = len(self.span)
        if n_devices == 1:
            return [self.maintenance_end]
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

    def run_maintenance(
        self,
        plan: list[Op],
        start: float,
        *,
        monitor: "ReplicaHealthMonitor | None" = None,
    ) -> ExecutionReport:
        """Execute ``plan`` on this replica's span, starting at ``start``.

        Op for op this performs exactly what
        :meth:`~repro.core.executor.PlanExecutor.execute` performs (reset
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
        for op in plan:
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
        journal recovery uses), making the re-run safe.
        """
        retry = monitor.retry
        pre_days = self.wave.days_by_name()
        attempts = 0
        while True:
            try:
                self.executor.execute_op(op, report)
                monitor.record_success(self)
                return True
            except TransientIOError:
                attempts += 1
                monitor.on_transient(self, now=now)
                if attempts >= retry.max_attempts:
                    monitor.retire(self, reason="flaky-maintenance")
                    return False
                self.device.advance(retry.delay_before_retry(attempts))
                monitor.note_retry(attempts)
                try:
                    sweep_orphan_extents(self.wave)
                    restore_op_target(
                        self.wave, self.executor.store, op, pre_days
                    )
                except FaultError:
                    monitor.retire(self, reason="repair-failed")
                    return False
            except DeviceFailure:
                monitor.retire(self, reason="device-failure")
                return False


class Shard:
    """One key-space slice: its store, its scheme, and its replicas."""

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

"""Cluster self-healing: health monitoring, circuit breakers, re-replication.

PR 4's cluster honors the paper's "index always available" requirement
only until the first permanent replica loss: after failover the shard
runs unreplicated forever, and a second fault turns it dark.  This
module closes that gap with three pieces:

* :class:`ReplicaHealthMonitor` — classifies faults per replica.
  :class:`~repro.errors.TransientIOError`\\ s that escape the device's own
  retry loop are retried at the *cluster* level under the same
  :class:`~repro.storage.faults.RetryPolicy`, with backoff charged to the
  replica's simulated clock; a per-replica **circuit breaker**
  (live → suspect → open after ``failure_threshold`` consecutive
  failures → half-open probe after a clocked cooldown → live/retired)
  stops the router from hammering a flaky device; and
  :class:`~repro.errors.DeviceFailure` retires the replica outright.

* :func:`rebuild_steps` — the re-replication pipeline, a boundary
  stream (:mod:`repro.core.boundary`).  When a shard
  drops below its replication target the simulation provisions a fresh
  spare device, smart-copies the donor's bindings onto it with
  :func:`~repro.cluster.rebalance.copy_index_to` (packed extents, all
  I/O charged to both devices' clocks), then **catches up** the day's
  arrivals by running the day plan through a
  :class:`~repro.core.recovery.JournaledExecutor` — so a simulated crash
  mid-rebuild resumes in place (orphan sweep + journal recovery) instead
  of corrupting the copy, and a dead or undersized spare aborts cleanly,
  leaving the donor untouched for a retry on the next day.  The new
  replica runs the donor's planner and technique on a plain
  :class:`~repro.core.executor.PlanExecutor`, as every replica does.
  It is not a journaled staged change (no commit point: nothing routes
  to the new replica until it is appended) but shares that pipeline's
  leaves — provisioning, transient retry, fault classification,
  discard, disarm and :class:`~repro.core.staged.ChangeAborted` — from
  :mod:`repro.core.staged`.

* The configuration surface (:class:`SelfHealConfig` /
  :class:`BreakerConfig`) hung off
  :class:`~repro.cluster.sim.ClusterConfig`.  Self-healing is **off by
  default**: with no config the cluster behaves bit-identically to PR 4
  (the ``k=1`` serialized-driver equivalence suite rests on that).

Healing activity is published as ``cluster.heal.*`` counters on the
simulation's metrics registry — breaker opens, cluster-level retries,
retired replicas, rebuilds and their bytes — which is what the chaos
soak harness (:mod:`repro.bench.chaos`) asserts against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from ..core.boundary import Boundary, Steps
from ..core.executor import PlanExecutor
from ..core.ops import Op
from ..core.recovery import (
    JournaledExecutor,
    recover_transition,
    sweep_orphan_extents,
)
from ..core.staged import (
    ChangeAborted,
    abort_reason,
    disarm_crash,
    discard_partial,
    retry_transients,
)
from ..core.wave import WaveIndex
from ..errors import (
    ClusterError,
    FaultError,
    OutOfSpaceError,
    SimulatedCrash,
)
from ..obs import MetricsRegistry
from ..storage.array import DiskArray
from ..storage.disk import SimulatedDisk
from ..storage.faults import RetryPolicy
from .rebalance import copy_index_to
from .shard import BreakerState, ReplicaHealth, Shard, ShardReplica


#: Escalation factor applied when a half-open probe fails (the breaker
#: reopens with a longer cooldown), and the cap on the escalated cooldown.
COOLDOWN_MULTIPLIER = 2.0
MAX_COOLDOWN_S = 8.0


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit-breaker tuning.

    Args:
        failure_threshold: Consecutive failures before the breaker opens.
        cooldown_s: Simulated seconds an open breaker refuses traffic
            before allowing one half-open probe; at most
            :data:`MAX_COOLDOWN_S`, which a failed probe escalates it to
            by :data:`COOLDOWN_MULTIPLIER`.
    """

    failure_threshold: int = 3
    cooldown_s: float = 0.5

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ClusterError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if not 0.0 <= self.cooldown_s <= MAX_COOLDOWN_S:
            raise ClusterError(
                f"cooldown_s must be in [0, {MAX_COOLDOWN_S}], "
                f"got {self.cooldown_s}"
            )


@dataclass(frozen=True)
class SelfHealConfig:
    """Switchboard for the cluster's self-healing behaviour.

    Args:
        breaker: Per-replica circuit-breaker tuning.
        retry: Cluster-level retry/backoff policy for transients that
            escape the device's own retry loop.  Backoff is charged to
            the replica's device clock, same as device-level retries.
        rebuild: Re-replicate under-replicated shards automatically
            (one rebuild per shard per day).
        spare_factory: Optional ``ordinal -> device`` factory for rebuild
            targets (the chaos harness's hook for arming faults on
            spares).  Defaults to the simulation's device factory.
    """

    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    rebuild: bool = True
    spare_factory: Callable[[int], SimulatedDisk] | None = None


@dataclass(frozen=True)
class RebuildReport:
    """Outcome of one replica rebuild (copy + catch-up replay)."""

    shard_id: int
    replica_id: int
    donor_replica_id: int
    device_index: int
    day: int
    indexes_copied: int
    bytes_copied: int
    copy_read_seconds: float
    copy_write_seconds: float
    catchup_seconds: float
    crash_recoveries: int
    start: float
    copy_read_end: float
    end: float

    @property
    def makespan_seconds(self) -> float:
        """Return the rebuild's span on the cluster timeline."""
        return self.end - self.start


class ReplicaHealthMonitor:
    """Classifies per-replica faults and drives the circuit breakers.

    One monitor per :class:`~repro.cluster.sim.ClusterSimulation`; each
    replica carries its own breaker
    (:attr:`~repro.cluster.shard.ShardReplica.health`), so a rebuilt or
    newly created replica starts clean.  ``now`` is the cluster clock
    base — the simulation advances it by each day's makespan, so breaker
    cooldowns are measured on the same simulated timeline as everything
    else.
    """

    def __init__(
        self, config: SelfHealConfig, obs: MetricsRegistry | None = None
    ) -> None:
        self.config = config
        self.retry = config.retry
        self.breaker = config.breaker
        self.obs = obs or MetricsRegistry()
        self.now = 0.0
        #: High-water mark of cluster-level retries charged to any
        #: single operation — the chaos harness asserts it never exceeds
        #: ``retry.max_attempts - 1``.
        self.max_op_retries = 0

    # ------------------------------------------------------------------
    # Fault classification
    # ------------------------------------------------------------------

    def on_transient(self, replica: ShardReplica, *, now: float) -> None:
        """Record one escaped transient against the replica's breaker."""
        health = replica.health
        health.transients += 1
        self.obs.counter("cluster.heal.transients").inc()
        if health.state is BreakerState.RETIRED:
            return
        if health.state is BreakerState.HALF_OPEN:
            # The probe failed: reopen with an escalated cooldown.
            health.cooldown_s = min(
                health.cooldown_s * COOLDOWN_MULTIPLIER, MAX_COOLDOWN_S
            )
            self._open(health, now)
            return
        health.consecutive_failures += 1
        if health.consecutive_failures >= self.breaker.failure_threshold:
            self._open(health, now)
        else:
            health.state = BreakerState.SUSPECT

    def _open(self, health: ReplicaHealth, now: float) -> None:
        health.state = BreakerState.OPEN
        health.cooldown_s = max(health.cooldown_s, self.breaker.cooldown_s)
        health.opened_at = now
        health.opens += 1
        health.consecutive_failures = 0
        self.obs.counter("cluster.heal.breaker_opens").inc()

    def record_success(self, replica: ShardReplica) -> None:
        """A call on the replica succeeded: close suspect/half-open state."""
        health = replica.health
        if health.state is BreakerState.RETIRED:
            return
        if health.state is BreakerState.HALF_OPEN:
            health.cooldown_s = self.breaker.cooldown_s
            self.obs.counter("cluster.heal.breaker_closes").inc()
        health.state = BreakerState.LIVE
        health.consecutive_failures = 0

    def retire(self, replica: ShardReplica, *, reason: str) -> None:
        """Permanently remove the replica from service."""
        health = replica.health
        if replica.failed and health.state is BreakerState.RETIRED:
            return
        replica.failed = True
        health.state = BreakerState.RETIRED
        self.obs.counter("cluster.heal.retired").inc()
        self.obs.counter(f"cluster.heal.retired.{reason}").inc()

    def note_retry(self, attempt: int) -> None:
        """Record one cluster-level retry (the ``attempt``-th for its op)."""
        self.obs.counter("cluster.heal.retries").inc()
        self.max_op_retries = max(self.max_op_retries, attempt)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def serving_replica(
        self,
        shard: Shard,
        *,
        now: float,
        exclude: set[int] = frozenset(),
    ) -> tuple[ShardReplica | None, float]:
        """Pick the replica a request should run on.

        Returns ``(replica, wait_seconds)``.  Replicas whose breakers are
        closed (live/suspect) or already half-open are preferred, in
        replica order; an open breaker past its cooldown half-opens and
        serves as the probe.  When every candidate's breaker is open, the
        request *waits out* the soonest cooldown (the wait is returned so
        the caller charges it to request latency, not to any device) and
        probes that replica.  ``None`` when no replica can serve —
        everything failed or is in ``exclude`` (excluded for this request:
        retry-exhausted, or holding a stale offline mark).
        """
        best: ShardReplica | None = None
        best_ready = float("inf")
        for replica in shard.replicas:
            if replica.failed or replica.replica_id in exclude:
                continue
            health = replica.health
            if health.state in (
                BreakerState.LIVE,
                BreakerState.SUSPECT,
                BreakerState.HALF_OPEN,
            ):
                return replica, 0.0
            if health.state is BreakerState.OPEN:
                ready = health.reopen_at()
                if ready <= now:
                    health.state = BreakerState.HALF_OPEN
                    self.obs.counter("cluster.heal.breaker_half_opens").inc()
                    return replica, 0.0
                if ready < best_ready:
                    best, best_ready = replica, ready
        if best is not None:
            best.health.state = BreakerState.HALF_OPEN
            self.obs.counter("cluster.heal.breaker_half_opens").inc()
            return best, best_ready - now
        return None, 0.0


# ----------------------------------------------------------------------
# Re-replication pipeline
# ----------------------------------------------------------------------


def rebuild_steps(
    shard: Shard,
    donor: ShardReplica,
    span: DiskArray,
    device_index: int,
    *,
    plan: list[Op],
    day: int,
    monitor: ReplicaHealthMonitor,
    start: float = 0.0,
) -> Steps:
    """Rebuild one replica of ``shard`` from ``donor`` onto ``span``;
    return the new ``(replica, report)``.

    ``span`` is fresh spare devices, array indexes from ``device_index``
    on; the new replica lives on them as the donor lives on its own, and
    runs the donor's planner (``plan`` is its plan for ``day``) and
    technique.

    Yields a ``"rebuild"`` :class:`~repro.core.boundary.Boundary` named
    ``copy:s{g}/r{i}:{name}`` before each binding's copy (again after a
    crash there resumed it) and the catch-up's op boundaries.  Two
    phases, both on the simulated cost clocks:

    1. **Copy** — every binding of the donor's wave index is smart-copied
       onto the span device in the place its source holds in the
       donor's span (:func:`~repro.cluster.rebalance.copy_index_to`:
       sequential read on the donor's device, one packed extent written
       on the spare).  The donor's pre-transition state is what gets
       copied — the donor has not run today's plan yet.
    2. **Catch-up** — the new replica replays today's plan through a
       :class:`~repro.core.recovery.JournaledExecutor` on the span,
       bringing it to the same post-transition state every other replica
       reaches via normal maintenance.

    Unlike the journaled staged changes (:mod:`repro.core.staged`) a
    rebuild has no commit point — nothing routes to the new replica
    until the caller appends it — so a :class:`~repro.errors.SimulatedCrash`
    in either phase *resumes in place* (orphan sweep + re-copy, or
    journal recovery) instead of aborting.  Everything else is the shared
    leaves: escaped transients are retried by
    :func:`~repro.core.staged.retry_transients`; any other fault aborts
    with :func:`~repro.core.staged.abort_reason`'s reason (a donor that
    died is retired first) — the donor is left intact and partial work
    on the spare is swept, so the healer can try again with a fresh spare
    next day; and the spare's crash points die with the rebuild.

    Raises:
        ChangeAborted: The rebuild could not complete (``kind="rebuild"``).
    """
    spares = span.devices
    technique = donor.executor.technique
    new_wave = WaveIndex(
        spares[0], donor.wave.config, len(donor.wave.constituents)
    )
    replica_id = max(r.replica_id for r in shard.replicas) + 1
    label = f"s{shard.shard_id}/r{replica_id}"
    devices = (*spares, donor.device)
    donor_span = donor.span
    donor_before = donor_span.total_clock
    spare_before = span.total_clock
    crash_recoveries = 0
    bytes_copied = 0
    copied = 0
    sweep = partial(sweep_orphan_extents, new_wave, spares)

    def crashed() -> None:
        nonlocal crash_recoveries
        crash_recoveries += 1
        monitor.obs.counter("cluster.heal.rebuild_crash_recoveries").inc()

    try:
        for name, index in list(donor.wave.bindings.items()):
            while True:
                try:
                    yield Boundary(
                        day, "rebuild", f"copy:{label}:{name}",
                        crash_recoveries + copied, shard.shard_id,
                        replica_id, devices,
                    )
                    target = spares[
                        donor_span.devices.index(index.disk) % len(spares)
                    ]
                    clone = retry_transients(
                        partial(copy_index_to, index, target, name=name),
                        new_wave,
                        monitor,
                        sweep,
                    )
                    break
                except SimulatedCrash:
                    # Disk state survives a process crash; roll the copy
                    # forward: sweep the half-written clone, re-copy.
                    disarm_crash(*spares, *donor_span.devices)
                    sweep()
                    crashed()
            new_wave.bind(name, clone)
            bytes_copied += clone.allocated_bytes
            copied += 1

        copy_read = donor_span.total_clock - donor_before
        copy_write = span.total_clock - spare_before

        journaled = JournaledExecutor(
            new_wave, shard.store, technique, span=span
        )
        try:
            yield from journaled.journaled_steps(
                plan, day=day, shard=shard.shard_id, replica=replica_id
            )
        except SimulatedCrash:
            disarm_crash(*spares)
            crashed()
            recover_transition(
                journaled.journal, new_wave, shard.store, technique
            )
    except (FaultError, OutOfSpaceError) as exc:
        if donor.device.failed:
            monitor.retire(donor, reason="died-during-rebuild")
        discard_partial(new_wave)
        raise ChangeAborted(
            f"rebuild of shard {shard.shard_id} aborted: {exc}",
            kind="rebuild",
            reason=abort_reason(exc),
        ) from exc
    finally:
        # The rebuild process exits here: any crash point armed against
        # it that never fired dies with it instead of ambushing the
        # replica's first normal maintenance pass.
        disarm_crash(*spares)

    catchup = span.total_clock - spare_before - copy_write
    end = start + copy_read + (span.total_clock - spare_before)
    replica = ShardReplica(
        shard_id=shard.shard_id,
        replica_id=replica_id,
        device_index=device_index,
        device=spares[0],
        wave=new_wave,
        executor=PlanExecutor(new_wave, shard.store, technique, span=span),
        scheme=donor.scheme,
        caught_up_day=day,
        maintenance_start=start,
        maintenance_end=end,
    )
    report = RebuildReport(
        shard_id=shard.shard_id,
        replica_id=replica_id,
        donor_replica_id=donor.replica_id,
        device_index=device_index,
        day=day,
        indexes_copied=copied,
        bytes_copied=bytes_copied,
        copy_read_seconds=copy_read,
        copy_write_seconds=copy_write,
        catchup_seconds=catchup,
        crash_recoveries=crash_recoveries,
        start=start,
        copy_read_end=start + copy_read,
        end=end,
    )
    return replica, report


__all__ = [
    "BreakerConfig",
    "BreakerState",
    "RebuildReport",
    "ReplicaHealth",
    "ReplicaHealthMonitor",
    "SelfHealConfig",
    "rebuild_steps",
]

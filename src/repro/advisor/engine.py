"""Online execution of accepted retune decisions.

A retune changes one replica's (scheme, n, technique) *while the cluster
serves*: the new design is materialized on a freshly provisioned spare
device, caught up to the decision day through a
:class:`~repro.core.recovery.JournaledExecutor`, and atomically swapped
in for the replica's old wave — the elastic pipeline's
copy → catch-up → swap shape, specialised to a single replica:

* **build** — the planner's bookkeeping is replayed *symbolically*
  (:class:`~repro.core.symbolic.SymbolicState`) from day 1 to the day
  before the retune, yielding the exact day-set every binding would hold
  had the new design run from the start (soft-window retention
  included); each binding is then built packed from the record store
  onto the spare, with the cluster's transient-retry policy;
* **catch-up** — the decision day's transition plan runs journaled, so
  the new wave incorporates the current day exactly once;
* **swap** — the commit point.  Before it, any fault (crash, space,
  device failure, exhausted retries) *aborts*: partial state is dropped,
  orphan extents swept, and the old design keeps serving untouched.  At
  or after it, faults roll *forward* — the old device's drain is
  idempotent and re-runs after disarming the dead process's crash
  points.

Every phase transition lands in a :class:`~repro.core.recovery.RetuneJournal`
(same commit-point semantics as the reshard journal).  Spare contention
stays healer-wins: the simulation defers retunes while any shard is
under-replicated, and a ``no-spare`` abort leaves the decision queued
for the next day.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..core.executor import PlanExecutor
from ..core.ops import BuildOp, CreateEmptyOp, Op
from ..core.recovery import (
    JournaledExecutor,
    ReshardPhase,
    RetuneJournal,
    sweep_orphan_extents,
)
from ..core.schemes import scheme_by_name
from ..core.symbolic import SymbolicState
from ..core.wave import WaveIndex
from ..errors import (
    ClusterError,
    DeviceFailure,
    FaultError,
    OutOfSpaceError,
    SimulatedCrash,
    TransientIOError,
)
from ..index.builder import build_index_from_store
from ..index.updates import UpdateTechnique
from ..storage.disk import SimulatedDisk
from ..storage.faults import RetryPolicy
from .planner import Design, RetuneDecision

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.shard import ShardReplica
    from ..cluster.sim import ClusterSimulation

#: Faults the retune pipeline absorbs into an abort / roll-forward.
_RETUNE_FAULTS = (FaultError, OutOfSpaceError, SimulatedCrash)

#: Faults swallowed during best-effort cleanup.
_CLEANUP_FAULTS = (FaultError, OutOfSpaceError)


class RetuneAborted(ClusterError):
    """A retune was abandoned; the old design is still serving."""

    def __init__(self, message: str, *, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class RetuneReport:
    """What one committed retune did and what it cost."""

    shard_id: int
    replica_id: int
    day: int
    before: str
    after: str
    indexes_built: int
    bytes_built: int
    build_seconds: float
    catchup_seconds: float
    #: Maintenance span charged to the replica this day (build + catch-up).
    seconds: float
    crash_recoveries: int
    journal: dict = field(repr=False)


class AdvisorEngine:
    """Executes :class:`RetuneDecision`\\ s against a live simulation."""

    def __init__(
        self,
        sim: "ClusterSimulation",
        *,
        journal_sink: Callable[[RetuneJournal], None] | None = None,
    ) -> None:
        self.sim = sim
        self.journal_sink = journal_sink

    # ------------------------------------------------------------------
    # Helpers (mirroring the elastic engine's conventions)
    # ------------------------------------------------------------------

    def _journal(self, journal: RetuneJournal) -> None:
        if self.journal_sink is not None:
            self.journal_sink(journal)

    @property
    def retry(self) -> RetryPolicy:
        monitor = self.sim._monitor
        if monitor is not None:
            return monitor.retry
        return RetryPolicy()

    @staticmethod
    def _classify(exc: BaseException) -> tuple[str, str]:
        """Map an escaped fault to an abort reason."""
        if isinstance(exc, SimulatedCrash):
            return "crash", str(exc)
        if isinstance(exc, OutOfSpaceError):
            return "space", str(exc)
        if isinstance(exc, DeviceFailure):
            return "device-failure", str(exc)
        if isinstance(exc, TransientIOError):
            return "flaky", str(exc)
        raise exc  # not a fault: bookkeeping bug, propagate loudly

    def _abort(
        self,
        journal: RetuneJournal,
        *,
        reason: str,
        message: str,
        new_wave: WaveIndex | None,
        spare: SimulatedDisk | None,
        replica: "ShardReplica",
        cause: BaseException | None = None,
    ) -> RetuneAborted:
        """Discard the partial build; the old design serves on untouched."""
        from ..cluster.selfheal import _disarm_crash, _discard_partial

        devices = [d for d in (spare, replica.device) if d is not None]
        _disarm_crash(*devices)
        if new_wave is not None:
            _discard_partial(new_wave)
        try:
            sweep_orphan_extents(
                replica.wave,
                extra_disks=(spare,) if spare is not None else (),
            )
        except _CLEANUP_FAULTS:
            pass
        if not journal.terminal:
            journal.advance(ReshardPhase.ABORTED)
            self._journal(journal)
        self.sim.obs.counter("cluster.advisor.aborted").inc()
        error = RetuneAborted(
            f"retune of shard {journal.shard_id} replica "
            f"{journal.replica_id} aborted: {message}",
            reason=reason,
        )
        if cause is not None:
            error.__cause__ = cause
        return error

    def _build_with_retry(
        self,
        store,
        target: SimulatedDisk,
        config,
        days: list[int],
        name: str,
        scratch_wave: WaveIndex,
    ):
        """One constituent build with the cluster retry policy."""
        retry = self.retry
        attempts = 0
        while True:
            try:
                return build_index_from_store(
                    target, config, store, days, name=name
                )
            except TransientIOError:
                attempts += 1
                if attempts >= retry.max_attempts:
                    raise
                target.advance(retry.delay_before_retry(attempts))
                monitor = self.sim._monitor
                if monitor is not None:
                    monitor.note_retry(attempts)
                sweep_orphan_extents(scratch_wave)

    def _fast_forward(self, design: Design, day: int):
        """Return (scheme, symbolic bindings) as if run since day 1."""
        scheme_cls = scheme_by_name(design.scheme)
        scheme = scheme_cls(self.sim.window, design.n_indexes)
        state = SymbolicState(scheme.index_names)
        state.apply_plan(scheme.start_ops())
        for d in range(self.sim.window + 1, day):
            state.apply_plan(scheme.transition_ops(d))
        return scheme, state

    def _drain_old(self, old_wave: WaveIndex, old_device_index: int) -> None:
        """Drop the old design's indexes and drain its device (idempotent)."""
        sim = self.sim
        for name in list(old_wave.bindings):
            index = old_wave.unbind(name)
            try:
                index.drop()
            except _CLEANUP_FAULTS:
                pass
        try:
            sweep_orphan_extents(old_wave)
        except _CLEANUP_FAULTS:
            pass
        if not sim.array.is_drained(old_device_index):
            sim.array.drain_device(old_device_index)
            sim.obs.counter("cluster.advisor.devices_drained").inc()

    # ------------------------------------------------------------------
    # The pipeline
    # ------------------------------------------------------------------

    def execute(self, decision: RetuneDecision, *, day: int) -> RetuneReport:
        """Run one retune; return its report or raise :class:`RetuneAborted`.

        ``day`` is the day the retune actually executes (>= the decision
        day when aborts deferred it); the new design catches up to it.
        """
        from ..cluster.selfheal import _disarm_crash

        sim = self.sim
        shard = next(
            (s for s in sim.shards if s.shard_id == decision.shard_id), None
        )
        replica = None
        if shard is not None:
            replica = next(
                (
                    r
                    for r in shard.replicas
                    if r.replica_id == decision.replica_id and not r.failed
                ),
                None,
            )
        journal = RetuneJournal(
            shard_id=decision.shard_id,
            replica_id=decision.replica_id,
            day=day,
            scheme_before=decision.current.label,
            scheme_after=decision.target.label,
            technique_after=decision.target.technique,
        )
        self._journal(journal)
        if shard is None or replica is None:
            journal.advance(ReshardPhase.ABORTED)
            self._journal(journal)
            sim.obs.counter("cluster.advisor.aborted").inc()
            raise RetuneAborted(
                f"retune target shard {decision.shard_id} replica "
                f"{decision.replica_id} no longer exists",
                reason="replica-gone",
            )

        technique = UpdateTechnique(decision.target.technique)
        scheme, state = self._fast_forward(decision.target, day)

        spares = sim.spares.acquire(1)
        if spares is None:
            journal.advance(ReshardPhase.ABORTED)
            self._journal(journal)
            sim.obs.counter("cluster.advisor.no_spare").inc()
            raise RetuneAborted(
                "spare budget exhausted: retune needs 1 device",
                reason="no-spare",
            )
        spare = spares[0]
        device_index = sim.array.add_device(spare)
        journal.target_device = device_index
        target_before = spare.clock

        new_wave = WaveIndex(spare, replica.wave.config, scheme.n_indexes)
        crash_recoveries = 0
        indexes_built = 0
        bytes_built = 0
        try:
            # -- build phase (the elastic copy phase, from the store) ---
            journal.advance(ReshardPhase.COPYING)
            self._journal(journal)
            empties: list[Op] = []
            for name in sorted(state.bindings):
                days = sorted(state.bindings[name])
                if not days:
                    empties.append(CreateEmptyOp(name))
                    continue
                index = self._build_with_retry(
                    shard.store, spare, replica.wave.config, days, name, new_wave
                )
                new_wave.bind(name, index)
                bytes_built += index.allocated_bytes
                indexes_built += 1
                journal.builds_done += 1
                self._journal(journal)
            if empties:
                PlanExecutor(new_wave, shard.store, technique).execute(empties)
            journal.advance(ReshardPhase.COPIED)
            self._journal(journal)

            # -- catch-up phase -----------------------------------------
            journal.advance(ReshardPhase.CATCHUP)
            self._journal(journal)
            catchup_before = spare.clock
            plan = list(scheme.transition_ops(day))
            executor = JournaledExecutor(new_wave, shard.store, technique)
            executor.execute_journaled(
                plan, day=day, scheme_state=scheme.get_state()
            )
            journal.catchup.append(executor.journal.to_dict())
            self._journal(journal)
            catchup_seconds = spare.clock - catchup_before
        except _RETUNE_FAULTS as exc:
            reason, message = self._classify(exc)
            raise self._abort(
                journal,
                reason=reason,
                message=message,
                new_wave=new_wave,
                spare=spare,
                replica=replica,
                cause=exc,
            ) from None

        # -- swap (the commit point) ------------------------------------
        journal.advance(ReshardPhase.SWAPPED)
        self._journal(journal)
        old_wave = replica.wave
        old_device = replica.device
        old_device_index = replica.device_index
        replica.wave = new_wave
        replica.device = spare
        replica.device_index = device_index
        replica.executor = PlanExecutor(new_wave, shard.store, technique)
        replica.scheme = scheme
        replica.caught_up_day = day
        sim._preplanned[id(scheme)] = []  # day's plan already applied

        # -- drain the old device (roll-forward territory) --------------
        try:
            self._drain_old(old_wave, old_device_index)
        except _RETUNE_FAULTS:
            _disarm_crash(old_device)
            crash_recoveries += 1
            sim.obs.counter("cluster.advisor.crash_recoveries").inc()
            self._drain_old(old_wave, old_device_index)
        journal.advance(ReshardPhase.DONE)
        self._journal(journal)

        span = spare.clock - target_before
        replica.maintenance_start = 0.0
        replica.maintenance_end = span
        sim.obs.counter("cluster.advisor.retunes").inc()
        sim.obs.counter("cluster.advisor.bytes_built").inc(bytes_built)
        return RetuneReport(
            shard_id=shard.shard_id,
            replica_id=replica.replica_id,
            day=day,
            before=decision.current.label,
            after=decision.target.label,
            indexes_built=indexes_built,
            bytes_built=bytes_built,
            build_seconds=span - catchup_seconds,
            catchup_seconds=catchup_seconds,
            seconds=span,
            crash_recoveries=crash_recoveries,
            journal=journal.to_dict(),
        )

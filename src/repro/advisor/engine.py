"""Online execution of accepted retune decisions: the ``retune`` kind.

A retune changes one replica's (scheme, n, technique) *while the cluster
serves*.  It is a staged change (:mod:`repro.core.staged` runs it, owns
the journal, the commit-point rule and the fault handling); this module
says only what a retune is:

* **build** — the planner's bookkeeping is replayed *symbolically*
  (:class:`~repro.core.symbolic.SymbolicState`) from day 1 to the day
  before the retune, yielding the exact day-set every binding would hold
  had the new design run from the start (soft-window retention
  included); each non-empty binding is one build unit, built packed from
  the record store onto a replica staged over freshly provisioned spares
  (as wide as every replica), each build on its executor's next creation
  device;
* **catch-up** — the decision day's transition plan runs journaled, so
  the new wave incorporates the current day exactly once;
* **swap** — the staged replica's wave, executor and scheme move onto
  the live replica in one step, which keeps its breaker, its planner
  cooldown and any change queued for it; cleanup discards the old
  design's wave, freeing every device of its span.

A retune waits in the cluster's one change queue beside the topology
changes and under the same rule: it waits while any shard is
under-replicated, and an abort after staging (a fault at a step)
leaves it queued for the next day.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any

from ..core.executor import PlanExecutor
from ..core.ops import CreateEmptyOp, Op
from ..core.schemes import scheme_by_name
from ..core.staged import ChangeAborted, StagedOutcome
from ..core.symbolic import SymbolicState
from ..index.builder import build_index_from_store
from ..index.updates import UpdateTechnique
from ..storage.array import DiskArray
from ..storage.disk import SimulatedDisk
from .planner import RetuneDecision

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.shard import ShardReplica
    from ..cluster.sim import ClusterSimulation


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


class Retune:
    """One :class:`RetuneDecision` as a staged change on its replica.

    The change holds the replica the decision was made for, so a split
    or merge that renumbers its shard first does not redirect it; one
    that left the cluster is refused ``replica-gone``.  The decision may
    execute later than the day it was made (the queue or an abort defers
    it); the new design catches up to the day it actually runs.
    """

    kind = "retune"
    counters = "cluster.advisor"
    #: The :class:`~repro.cluster.sim.Turn` fields its outcomes land in:
    #: committed reports, aborts, and why it did not commit today.
    tally = ("retunes", "retunes_aborted", "retune_deferred")

    def __init__(
        self,
        sim: "ClusterSimulation",
        replica: "ShardReplica",
        decision: RetuneDecision,
    ) -> None:
        self.sim = sim
        self.replica = replica
        self.decision = decision
        self.technique = UpdateTechnique(decision.target.technique)

    def __str__(self) -> str:
        replica = self.replica
        return f"retune of shard {replica.shard_id} replica {replica.replica_id}"

    def validate(self) -> None:
        replica = self.replica
        for shard in self.sim.shards:
            if replica in shard.replicas:
                self.shard = shard
                return
        raise ChangeAborted(
            f"retune target shard {replica.shard_id} replica "
            f"{replica.replica_id} no longer exists",
            kind="retune",
            reason="replica-gone",
        )

    @property
    def source_devices(self) -> tuple[SimulatedDisk, ...]:
        return tuple(self.replica.span.devices)

    @property
    def n_targets(self) -> int:
        return self.sim.config.devices_per_replica

    def subject(self) -> dict[str, Any]:
        decision, replica = self.decision, self.replica
        return {
            "shard_id": replica.shard_id,
            "replica_id": replica.replica_id,
            "scheme_before": decision.current.label,
            "scheme_after": decision.target.label,
            "technique_after": decision.target.technique,
        }

    def stage(
        self, targets: list[SimulatedDisk], day: int
    ) -> list["ShardReplica"]:
        """Fast-forward the target design's bookkeeping as if it had run
        since day 1, and stage an empty replica of it on the spares."""
        from ..cluster.shard import ShardReplica

        design = self.decision.target
        window = self.sim.window
        scheme = scheme_by_name(design.scheme)(window, design.n_indexes)
        self.state = SymbolicState(scheme.index_names)
        self.state.apply_plan(scheme.start_ops())
        for d in range(window + 1, day):
            self.state.apply_plan(scheme.transition_ops(d))
        replica = self.replica
        self.staged = ShardReplica(
            self.shard.shard_id,
            replica.replica_id,
            DiskArray(targets),
            store=self.shard.store,
            technique=self.technique,
            scheme=scheme,
            config=replica.wave.config,
        )
        return [self.staged]

    def builds(self, staged: "ShardReplica"):
        """One packed build per binding that holds days, each on the
        executor's next creation device; the rest are created empty."""
        executor = staged.executor
        empties: list[Op] = []
        for name in sorted(self.state.bindings):
            days = sorted(self.state.bindings[name])
            if not days:
                empties.append(CreateEmptyOp(name))
                continue
            yield name, partial(
                build_index_from_store,
                executor.creation_disk(),
                staged.wave.config,
                executor.store,
                days,
                name=name,
            )
        # This runs when the runner asks for the next build, i.e. still
        # inside its build phase: a fault here aborts like any other.
        if empties:
            executor.execute(empties)

    def swap(self, day: int) -> list[PlanExecutor]:
        """Move the staged replica's wave, executor and planner onto the
        live replica in one step; return the executor it replaced."""
        replica, staged = self.replica, self.staged
        retired = replica.executor
        replica.wave = staged.wave
        replica.executor = staged.executor
        replica.scheme = staged.scheme
        replica.caught_up_day = day
        return [retired]

    def report(self, outcome: StagedOutcome) -> RetuneReport:
        sim, replica, decision = self.sim, self.replica, self.decision
        span = outcome.seconds_on(replica.span)
        replica.maintenance_start = 0.0
        replica.maintenance_end = span
        sim.obs.counter("cluster.advisor.retunes").inc()
        sim.obs.counter("cluster.advisor.bytes_built").inc(outcome.bytes_built)
        return RetuneReport(
            shard_id=self.shard.shard_id,
            replica_id=replica.replica_id,
            day=outcome.journal.day,
            before=decision.current.label,
            after=decision.target.label,
            indexes_built=outcome.journal.units_done,
            bytes_built=outcome.bytes_built,
            build_seconds=span - outcome.catchup_seconds,
            catchup_seconds=outcome.catchup_seconds,
            seconds=span,
            crash_recoveries=outcome.crash_recoveries,
            journal=outcome.journal.to_dict(),
        )

"""Elastic resharding: online shard split/merge kinds + the autoscaler.

A cluster whose topology is frozen at construction cannot survive its own
workload: a hot partition range stays hot forever and a mis-sized cluster
never recovers.  This module makes the topology itself *evolve* — the
cluster-level analogue of the paper's wave transitions — while keeping
the window serving throughout:

* :class:`Split` and :class:`Merge` — the two topology-changing *kinds*
  of staged change.  They say what differs and nothing else; the
  pipeline that runs them (plan → provision → build → catch-up → swap →
  cleanup), its :class:`~repro.core.staged.ChangeJournal`, the
  commit-point rule, the abort / roll-forward handling and the step hook
  the topology-chaos harness (:mod:`repro.bench.topology_chaos`) drives
  all live in :mod:`repro.core.staged`.  A **split** of a hot shard
  plans the new partition boundary
  (:meth:`~repro.cluster.partitioner.RangePartitioner.split` /
  :meth:`~repro.cluster.partitioner.SlotHashPartitioner.split`) and
  smart-copies the affected constituents onto freshly provisioned devices
  (:func:`~repro.cluster.rebalance.copy_index_to` with a child-ownership
  filter); a **merge** of two cold neighbours merge-copies them
  (:func:`~repro.cluster.rebalance.merge_indexes_to`).  Either way the
  swap installs the new shard list and **atomically swaps** the
  coordinator's partitioner/routing table
  (:meth:`~repro.cluster.coordinator.ClusterCoordinator.swap_topology`).

* :class:`Autoscaler` — watches per-shard routed requests, busy seconds,
  and under-replication each day and emits split/merge actions,
  sequenced **one at a time** (Kimura et al.'s deploy-order concern
  applied to topology changes) with its proposals surfaced as an
  inspectable :class:`AutoscalerDecision` before anything executes (the
  semi-automatic tuning posture).

Elasticity is **off by default**: with ``ClusterConfig.elastic = None``
the simulation behaves bit-identically to PR 5 — the ``k=1, r=1``
serialized-driver equivalence suite rests on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from ..advisor.observer import TrafficWindow
from ..core.checkpoint import CHECKPOINT_VERSION, restore_scheme
from ..core.executor import PlanExecutor
from ..core.staged import ChangeAborted, Scratch, StagedOutcome
from ..core.wave import WaveIndex
from ..errors import ClusterError
from ..storage.disk import SimulatedDisk
from .partitioner import RangePartitioner, partition_store
from .rebalance import copy_index_to, merge_indexes_to
from .shard import Shard, ShardReplica

if TYPE_CHECKING:
    from .sim import ClusterSimulation


@dataclass(frozen=True)
class ElasticConfig:
    """Switchboard for elastic resharding and the autoscaler.

    Args:
        autoscale: Watch per-shard load each day and queue split/merge
            actions automatically.  With ``False`` the engine only runs
            actions requested explicitly
            (:meth:`~repro.cluster.sim.ClusterSimulation.request_split` /
            ``request_merge``).
        split_load_factor: A shard whose busy-seconds exceed this factor
            times the mean proposes a split.
        merge_load_factor: An adjacent pair whose *combined* busy-seconds
            fall below this factor times the mean proposes a merge.
        min_shards: Never merge below this shard count.
        max_shards: Never split above this shard count.
        cooldown_days: Days to wait after an applied action before
            proposing another (bounds churn; actions already run one at
            a time regardless).
    """

    autoscale: bool = True
    split_load_factor: float = 2.0
    merge_load_factor: float = 0.4
    min_shards: int = 2
    max_shards: int = 8
    cooldown_days: int = 1

    def __post_init__(self) -> None:
        if self.split_load_factor <= 1.0:
            raise ClusterError(
                f"split_load_factor must be > 1, got {self.split_load_factor}"
            )
        if not 0.0 < self.merge_load_factor < 1.0:
            raise ClusterError(
                f"merge_load_factor must be in (0, 1), "
                f"got {self.merge_load_factor}"
            )
        if self.min_shards < 1:
            raise ClusterError(
                f"min_shards must be >= 1, got {self.min_shards}"
            )
        if self.max_shards < self.min_shards:
            raise ClusterError(
                f"max_shards ({self.max_shards}) must be >= "
                f"min_shards ({self.min_shards})"
            )
        if self.cooldown_days < 0:
            raise ClusterError(
                f"cooldown_days must be >= 0, got {self.cooldown_days}"
            )


@dataclass(frozen=True)
class ScaleAction:
    """One proposed topology change (the autoscaler's unit of work)."""

    kind: str  # "split" | "merge"
    shard_id: int
    split_key: Any = None
    reason: str = ""

    def describe(self) -> dict[str, Any]:
        """Return a JSON-friendly description (for day stats / reports)."""
        return {
            "kind": self.kind,
            "shard_id": self.shard_id,
            "split_key": None if self.split_key is None else str(self.split_key),
            "reason": self.reason,
        }


@dataclass(frozen=True)
class AutoscalerDecision:
    """What the autoscaler saw and decided on one day — the inspectable
    plan surfaced *before* anything executes."""

    day: int
    proposed: tuple[ScaleAction, ...]
    queued: ScaleAction | None
    deferred_reason: str | None

    def describe(self) -> dict[str, Any]:
        """Return a JSON-friendly description."""
        return {
            "day": self.day,
            "proposed": [a.describe() for a in self.proposed],
            "queued": None if self.queued is None else self.queued.describe(),
            "deferred_reason": self.deferred_reason,
        }


@dataclass(frozen=True)
class ReshardReport:
    """Outcome of one completed topology change."""

    kind: str
    day: int
    source_shards: tuple[int, ...]
    child_shards: tuple[int, ...]
    n_shards_after: int
    split_key: Any
    indexes_copied: int
    bytes_copied: int
    copy_seconds: float
    catchup_seconds: float
    crash_recoveries: int
    topology_version: int
    makespan_seconds: float


class Autoscaler:
    """Per-day load watcher emitting split/merge proposals.

    Policy (deliberately simple and fully deterministic):

    1. An under-replicated shard defers everything — restoring
       redundancy (the healer's job) outranks rebalancing load, and the
       deterministic ordering is what keeps the healer and the engine
       from fighting over spares.
    2. Within ``cooldown_days`` of the last applied action, observe only.
    3. Otherwise, if the hottest shard's busy-seconds exceed
       ``split_load_factor x`` the mean (and it saw real traffic, and
       ``k < max_shards``), propose splitting it.
    4. Otherwise, if the coldest adjacent pair's *combined* busy-seconds
       fall below ``merge_load_factor x`` the mean (and
       ``k > min_shards``), propose merging the pair.

    Proposals are returned as an :class:`AutoscalerDecision`; the
    simulation queues the first one only into an empty change queue (one
    staged change at a time, Kimura-style) and records in the day's
    stats what became of it: a proposal that met a busy queue is
    recorded with ``queued`` empty and ``deferred_reason`` ``"queue-busy"``.
    """

    def __init__(self, config: ElasticConfig) -> None:
        self.config = config

    def propose(
        self,
        *,
        day: int,
        busy_seconds: list[float],
        requests: list[int],
        under_replicated: bool,
        last_action_day: int | None,
    ) -> AutoscalerDecision:
        """Evaluate one day's per-shard load; return the decision."""
        cfg = self.config
        k = len(busy_seconds)
        if under_replicated:
            return AutoscalerDecision(day, (), None, "under-replicated")
        if (
            last_action_day is not None
            and day < last_action_day + cfg.cooldown_days
        ):
            return AutoscalerDecision(day, (), None, "cooldown")
        total = sum(busy_seconds)
        if total <= 0.0 or k == 0:
            return AutoscalerDecision(day, (), None, "no-load")
        mean = total / k
        hot = max(range(k), key=lambda s: (busy_seconds[s], -s))
        if (
            busy_seconds[hot] > cfg.split_load_factor * mean
            and requests[hot] > 0
            and k < cfg.max_shards
        ):
            action = ScaleAction(
                kind="split",
                shard_id=hot,
                reason=(
                    f"shard {hot} busy {busy_seconds[hot]:.3f}s > "
                    f"{cfg.split_load_factor}x mean {mean:.3f}s"
                ),
            )
            return AutoscalerDecision(day, (action,), action, None)
        if k > cfg.min_shards:
            cold = min(
                range(k - 1),
                key=lambda s: (busy_seconds[s] + busy_seconds[s + 1], s),
            )
            combined = busy_seconds[cold] + busy_seconds[cold + 1]
            if combined < cfg.merge_load_factor * mean:
                action = ScaleAction(
                    kind="merge",
                    shard_id=cold,
                    reason=(
                        f"shards {cold}+{cold + 1} combined busy "
                        f"{combined:.3f}s < {cfg.merge_load_factor}x "
                        f"mean {mean:.3f}s"
                    ),
                )
                return AutoscalerDecision(day, (action,), action, None)
        return AutoscalerDecision(day, (), None, None)


class _Reshard:
    """What a split and a merge share as staged changes.

    A change holds the shards it replaces, looked up when it is
    requested: one queued behind another split or merge reads their
    position when it runs, and is refused ``shard-gone`` if an earlier
    change replaced one.

    Both replace adjacent ``parents`` by the shards ``child_ids`` under
    ``new_partitioner``: each child is a view of the cluster's source
    store under it, as the first day's shards are, every child replica
    gets a fresh device and runs the child's clone of the donors'
    planner, one build unit per
    (child, replica, constituent) copies the constituent off the parents'
    primaries, each child replica replays the day's plan, the swap
    installs the new shard list and routing table atomically, and cleanup
    drops the parents' indexes and drains their devices.  The subclasses
    say which parents, which children, and how one constituent is copied.
    """

    kind: str
    #: How many adjacent shards, from ``shard_id`` up, the change replaces.
    span: int
    counters = "cluster.elastic"
    #: The :class:`~repro.cluster.sim.Turn` fields its outcomes land in:
    #: committed reports, aborts, and why it did not commit today.
    tally = ("reshards", "reshards_aborted", "reshard_deferred")

    def __init__(
        self,
        sim: "ClusterSimulation",
        shard_id: int,
        split_key: Any = None,
        reason: str = "",
    ) -> None:
        n_shards = len(sim.shards)
        if not 0 <= shard_id <= n_shards - self.span:
            raise ClusterError(
                f"cannot {self.kind} shard {shard_id}: a {self.kind} "
                f"replaces {self.span} adjacent shard(s) from it, and the "
                f"shards are 0..{n_shards - 1}"
            )
        self.sim = sim
        self.parents: list[Shard] = sim.shards[shard_id: shard_id + self.span]
        self.split_key = split_key
        self.reason = reason

    @property
    def shard_id(self) -> int:
        """Return the first parent's position (its last, once it left)."""
        return self.parents[0].shard_id

    def __str__(self) -> str:
        return f"{self.kind} of shard {self.shard_id}"

    def _refuse(self, reason: str, why: str) -> ChangeAborted:
        return ChangeAborted(f"{self}: {why}", kind=self.kind, reason=reason)

    def _resolve(self) -> Any:
        """Record the parents' donors and design; return the partitioner.

        Everything the change may meet by the time it runs — a parent an
        earlier change replaced, a partitioner that cannot change, a dark
        parent — is a refusal, never an error that escapes the day loop.
        """
        parents = self.parents
        if any(parent not in self.sim.shards for parent in parents):
            raise self._refuse(
                "shard-gone", "an earlier split or merge replaced a shard it names"
            )
        part = self.sim.partitioner
        if not hasattr(part, "split") or not hasattr(part, "merge_with_next"):
            raise self._refuse(
                "fixed-partitioner",
                f"partitioner {part!r} does not support topology changes",
            )
        donors = [parent.primary for parent in parents]
        if None in donors:
            raise self._refuse(
                "dark-source", "a source shard is dark — nothing to copy from"
            )
        # The children run the design their donors run.
        designs = [
            (donor.scheme, donor.executor.technique) for donor in donors
        ]
        if len({(s.name, s.n_indexes, t) for s, t in designs}) > 1:
            raise self._refuse(
                "designs-differ", "the source shards run different designs"
            )
        self.donors: list[ShardReplica] = donors
        self.scheme, self.technique = designs[0]
        return part

    def _replan(self, plan: Callable[[], Any]) -> Any:
        """Return ``plan()``'s new partitioner; a partitioner's refusal
        (a slot-hash shard owning one slot, a key outside the range, a
        range merged down to one shard) refuses the change."""
        try:
            return plan()
        except ClusterError as exc:
            raise self._refuse("partitioner-refused", str(exc)) from exc

    @property
    def source_devices(self) -> tuple[SimulatedDisk, ...]:
        return tuple(d.device for d in self.donors)

    @property
    def n_targets(self) -> int:
        return len(self.child_ids) * self.sim.config.replication

    def subject(self) -> dict[str, Any]:
        return {
            "source_shards": [p.shard_id for p in self.parents],
            "partitioner_before": self.sim.partitioner.describe(),
            "partitioner_after": self.new_partitioner.describe(),
        }

    def stage(
        self, targets: list[tuple[int, SimulatedDisk]], day: int
    ) -> list[Scratch]:
        """Lay out the children, ``replication`` consecutive targets
        each, on empty waves over views of the source store."""
        sim = self.sim
        # The untouched shards keep the views they were made with: they
        # own the same keys under the new partitioner.
        stores = partition_store(sim.store, self.new_partitioner)
        repl = sim.config.replication
        donor_wave = self.donors[0].wave
        self.children: list[Shard] = []
        scratch = []
        for i, gid in enumerate(self.child_ids):
            # Clone the donor's planner pre-planning (planning mutates it).
            scheme = restore_scheme(
                {"version": CHECKPOINT_VERSION, "scheme": self.scheme.get_state()}
            )
            replicas = []
            for ri, (device_index, device) in enumerate(
                targets[i * repl: (i + 1) * repl]
            ):
                wave = WaveIndex(
                    device, donor_wave.config, len(donor_wave.constituents)
                )
                replicas.append(
                    ShardReplica(
                        shard_id=gid,
                        replica_id=ri,
                        device_index=device_index,
                        device=device,
                        wave=wave,
                        executor=PlanExecutor(wave, stores[gid], self.technique),
                        scheme=scheme,
                        caught_up_day=day,
                    )
                )
                scratch.append(
                    Scratch(gid, ri, wave, stores[gid], self.technique, scheme)
                )
            self.children.append(Shard(gid, scheme, stores[gid], replicas))
        return scratch

    def builds(self, scratch: Scratch):
        """One copy per constituent of the parents' primaries."""
        for name in list(self.donors[0].wave.bindings):
            yield name, partial(
                self._copy, name, scratch.wave.disk, scratch.shard_id
            )

    def _copy(self, name: str, target: SimulatedDisk, gid: int):
        """Copy constituent ``name`` for child ``gid`` onto ``target``."""
        raise NotImplementedError

    def swap(self, day: int) -> list[tuple[WaveIndex, int]]:
        """Install the new shard list + routing table atomically; every
        shard's ``shard_id`` becomes its new position, the parents retire
        with their day series, and the children inherit their traffic."""
        sim = self.sim
        old = sim.shards
        shard_id = self.shard_id
        new_shards = (
            old[:shard_id] + self.children + old[shard_id + len(self.parents):]
        )
        for new_id, shard in enumerate(new_shards):
            shard.shard_id = new_id
            for replica in shard.replicas:
                replica.shard_id = new_id
        sim.shards = new_shards
        sim.partitioner = self.new_partitioner
        sim._last_action_day = day
        self.topology_version = sim.coordinator.swap_topology(
            new_shards, self.new_partitioner
        )
        result = sim.result
        result.shard_results = [shard.series for shard in new_shards]
        result.retired_shard_results.extend(p.series for p in self.parents)
        # A child's traffic window is its parents', restricted to the
        # values it now owns; the untouched shards keep their own.
        windows = [p.traffic for p in self.parents if p.traffic is not None]
        if windows:
            route = self.new_partitioner.shard_for
            for child in self.children:
                child.traffic = TrafficWindow.handed_on(
                    windows, lambda v, gid=child.shard_id: route(v) == gid
                )
        result.n_shards = len(new_shards)
        result.partitioner = self.new_partitioner.describe()
        return [
            (replica.wave, replica.device_index)
            for parent in self.parents
            for replica in parent.replicas
        ]

    def report(self, outcome: StagedOutcome) -> ReshardReport:
        sim = self.sim
        before = outcome.clock_before
        makespan = 0.0
        replicas = [r for child in self.children for r in child.replicas]
        for replica in replicas:
            span = outcome.source_seconds + (
                replica.device.clock - before[replica.device_index]
            )
            replica.maintenance_start = 0.0
            replica.maintenance_end = span
            makespan = max(makespan, span)
        copy_seconds = (
            sum(r.device.clock - before[r.device_index] for r in replicas)
            - outcome.catchup_seconds
            + outcome.source_seconds
        )
        sim.obs.counter(f"cluster.elastic.{self.kind}s").inc()
        sim.obs.counter("cluster.elastic.bytes_copied").inc(outcome.bytes_built)
        return ReshardReport(
            kind=self.kind,
            day=outcome.journal.day,
            source_shards=tuple(outcome.journal.subject["source_shards"]),
            child_shards=tuple(s.shard_id for s in self.children),
            n_shards_after=len(sim.shards),
            split_key=self.split_key,
            indexes_copied=outcome.journal.units_done,
            bytes_copied=outcome.bytes_built,
            copy_seconds=copy_seconds,
            catchup_seconds=outcome.catchup_seconds,
            crash_recoveries=outcome.crash_recoveries,
            topology_version=self.topology_version,
            makespan_seconds=makespan,
        )


class Split(_Reshard):
    """Split one hot shard in two at ``split_key`` (``None``: the median
    owned key for a range partitioner; slot-hash halves its slot set)."""

    kind = "split"
    span = 1

    def validate(self) -> None:
        part = self._resolve()
        if self.split_key is None:
            self.split_key = self._choose_split_key(part)
        self.new_partitioner = self._replan(
            partial(part.split, self.shard_id, key=self.split_key)
        )
        self.child_ids = (self.shard_id, self.shard_id + 1)

    def _choose_split_key(self, part) -> Any:
        """Pick the median owned key strictly inside the shard's range."""
        if not isinstance(part, RangePartitioner):
            return None  # slot-hash splits deterministically, no key
        shard_id = self.shard_id
        store = self.parents[0].store
        splits = part.split_points
        lo = splits[shard_id - 1] if shard_id > 0 else None
        hi = splits[shard_id] if shard_id < len(splits) else None
        values: set[Any] = set()
        for day in store.days:
            for record in store.batch(day).records:
                values.update(record.values)
        candidates = sorted(
            v
            for v in values
            if (lo is None or v > lo) and (hi is None or v < hi)
        )
        if not candidates:
            raise self._refuse(
                "no-split-key",
                "no key strictly inside the shard's range "
                "(single-value or empty range)",
            )
        return candidates[len(candidates) // 2]

    def subject(self) -> dict[str, Any]:
        key = self.split_key
        return {
            **super().subject(),
            "split_key": None if key is None else str(key),
        }

    def _copy(self, name: str, target: SimulatedDisk, gid: int):
        part = self.new_partitioner
        return copy_index_to(
            self.donors[0].wave.bindings[name],
            target,
            name=name,
            keep=lambda value: part.shard_for(value) == gid,
        )


class Merge(_Reshard):
    """Merge a cold shard with its next neighbour into one."""

    kind = "merge"
    span = 2

    def validate(self) -> None:
        part = self._resolve()
        self.new_partitioner = self._replan(
            partial(part.merge_with_next, self.shard_id)
        )
        self.child_ids = (self.shard_id,)

    def _copy(self, name: str, target: SimulatedDisk, gid: int):
        left, right = (donor.wave.bindings for donor in self.donors)
        if name not in right:
            return copy_index_to(left[name], target, name=name, keep=None)
        return merge_indexes_to([left[name], right[name]], target, name=name)


def reshard_change(sim: "ClusterSimulation", action: ScaleAction) -> _Reshard:
    """Return the staged change that carries out ``action``."""
    if action.kind == "split":
        return Split(sim, action.shard_id, action.split_key, action.reason)
    if action.kind == "merge":
        return Merge(sim, action.shard_id, reason=action.reason)
    raise ClusterError(f"unknown scale action kind {action.kind!r}")


__all__ = [
    "Autoscaler",
    "AutoscalerDecision",
    "ElasticConfig",
    "Merge",
    "ReshardReport",
    "ScaleAction",
    "Split",
    "reshard_change",
]

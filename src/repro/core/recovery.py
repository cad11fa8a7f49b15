"""Crash-consistent transitions: op-level journaling and roll-forward recovery.

:mod:`repro.core.checkpoint` can rebuild a wave index from the *last completed*
day, but a crash in the middle of a transition used to lose the plan's partial
progress and leak every extent the interrupted op had allocated.  This module
closes that gap with a write-ahead journal one level below checkpoints:

* :class:`JournaledExecutor` records a :class:`TransitionJournal` before the
  plan starts (pre-transition day-sets + the serialized plan + the scheme's
  post-planning state) and advances ``completed``/``in_flight`` around every
  op, optionally pushing each update through ``journal_sink`` (the stand-in
  for a durable WAL device; journal writes are metadata-sized and charged no
  simulated I/O time).
* :func:`recover_transition` rolls an interrupted transition forward on the
  surviving disk state: orphaned extents are swept (mark-and-sweep over the
  bindings' referenced extents), the op that was in flight has its target
  rebuilt from the record store over its journaled pre-op day-set (making the
  replay idempotent even for in-place mutations), and the remaining ops are
  re-executed.  The result is binding-for-binding equivalent to a fault-free
  run: same day-sets, same entries, zero leaked extents.

The recovery model matches the simulation's durability story: the simulated
disk (extents + index payloads) survives a :class:`~repro.errors.SimulatedCrash`;
executor and scheme objects do not.  The journal carries enough scheme state
(:func:`resume_scheme`) to continue the run after recovery.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..errors import RecoveryError
from ..index.builder import build_index_from_store
from ..storage.disk import SimulatedDisk
from ..index.updates import UpdateTechnique
from .checkpoint import CHECKPOINT_VERSION, restore_scheme
from .executor import ExecutionReport, PlanExecutor
from .ops import (
    AddOp,
    BuildOp,
    CopyOp,
    CreateEmptyOp,
    DeleteOp,
    DropOp,
    Op,
    Phase,
    RenameOp,
    UpdateOp,
)
from .records import RecordStore
from .schemes.base import WaveScheme
from .symbolic import SymbolicState
from .wave import WaveIndex

#: Journal format marker, independent of the checkpoint version.
JOURNAL_VERSION = 1

_OP_TYPES: dict[str, type[Op]] = {
    cls.__name__: cls
    for cls in (
        AddOp,
        BuildOp,
        CopyOp,
        CreateEmptyOp,
        DeleteOp,
        DropOp,
        RenameOp,
        UpdateOp,
    )
}

#: Op fields holding day tuples (serialized as lists, restored as tuples).
_DAY_FIELDS = frozenset({"days", "add_days", "delete_days"})


def op_to_dict(op: Op) -> dict:
    """Serialise one op to a JSON-safe dict."""
    payload: dict = {"type": type(op).__name__, "phase": op.phase.value}
    for f in dataclasses.fields(op):
        if f.name == "phase":
            continue
        value = getattr(op, f.name)
        payload[f.name] = list(value) if f.name in _DAY_FIELDS else value
    return payload


def op_from_dict(payload: dict) -> Op:
    """Reconstruct an op serialized by :func:`op_to_dict`."""
    try:
        op_cls = _OP_TYPES[payload["type"]]
    except KeyError:
        raise RecoveryError(f"unknown journaled op type {payload.get('type')!r}") from None
    kwargs = {
        name: tuple(value) if name in _DAY_FIELDS else value
        for name, value in payload.items()
        if name not in ("type", "phase")
    }
    return op_cls(phase=Phase(payload["phase"]), **kwargs)


@dataclass
class TransitionJournal:
    """Durable record of one transition's progress.

    Attributes:
        day: The day the plan incorporates.
        plan: The full op plan, in order.
        pre_days: Every binding's day-set *before* the plan ran
            (constituents and temporaries), from which any op's pre-state
            can be re-derived symbolically.
        scheme_state: The scheme's bookkeeping after planning ``day`` (a
            :meth:`~repro.core.schemes.base.WaveScheme.get_state` snapshot),
            so recovery can also resurrect the planner.
        completed: Number of ops fully applied.
        in_flight: Index of an op that started but did not finish, or
            ``None`` when the crash hit an op boundary.
    """

    day: int
    plan: list[Op]
    pre_days: dict[str, list[int]] = field(default_factory=dict)
    scheme_state: dict | None = None
    completed: int = 0
    in_flight: int | None = None

    @classmethod
    def begin(
        cls,
        *,
        day: int,
        plan: list[Op],
        pre_days: dict[str, set[int]],
        scheme_state: dict | None = None,
    ) -> "TransitionJournal":
        """Open a journal for ``plan`` against the given pre-state."""
        return cls(
            day=day,
            plan=list(plan),
            pre_days={name: sorted(days) for name, days in pre_days.items()},
            scheme_state=scheme_state,
        )

    @property
    def finished(self) -> bool:
        """Return ``True`` once every op has been applied."""
        return self.completed >= len(self.plan)

    def to_dict(self) -> dict:
        """Serialise to a JSON-safe dict."""
        return {
            "version": JOURNAL_VERSION,
            "day": self.day,
            "plan": [op_to_dict(op) for op in self.plan],
            "pre_days": {k: list(v) for k, v in self.pre_days.items()},
            "scheme_state": self.scheme_state,
            "completed": self.completed,
            "in_flight": self.in_flight,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TransitionJournal":
        """Reconstruct a journal serialized by :meth:`to_dict`."""
        if payload.get("version") != JOURNAL_VERSION:
            raise RecoveryError(
                f"unsupported journal version {payload.get('version')!r}"
            )
        return cls(
            day=payload["day"],
            plan=[op_from_dict(p) for p in payload["plan"]],
            pre_days={k: list(v) for k, v in payload["pre_days"].items()},
            scheme_state=payload.get("scheme_state"),
            completed=payload["completed"],
            in_flight=payload["in_flight"],
        )

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TransitionJournal":
        """Parse a journal produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


class JournaledExecutor(PlanExecutor):
    """A :class:`PlanExecutor` that write-ahead journals each op.

    Args:
        wave, store, technique: As for :class:`PlanExecutor`.
        journal_sink: Optional callable invoked with the journal after every
            mutation — the attachment point for durable journal storage.
            The journal object passed is live; sinks that need isolation
            should persist ``journal.to_json()``.
    """

    def __init__(
        self,
        wave: WaveIndex,
        store: RecordStore,
        technique: UpdateTechnique = UpdateTechnique.SIMPLE_SHADOW,
        *,
        journal_sink: Callable[[TransitionJournal], None] | None = None,
    ) -> None:
        super().__init__(wave, store, technique)
        self.journal: TransitionJournal | None = None
        self.journal_sink = journal_sink

    def _persist_journal(self) -> None:
        if self.journal_sink is not None and self.journal is not None:
            self.journal_sink(self.journal)

    def execute_journaled(
        self,
        plan: list[Op],
        *,
        day: int,
        scheme_state: dict | None = None,
    ) -> ExecutionReport:
        """Run ``plan`` with write-ahead journaling.

        On a :class:`~repro.errors.SimulatedCrash` (or any other failure)
        the journal stays on :attr:`journal`, ready for
        :func:`recover_transition`.
        """
        journal = TransitionJournal.begin(
            day=day,
            plan=plan,
            pre_days=self.wave.days_by_name(),
            scheme_state=scheme_state,
        )
        self.journal = journal
        self._persist_journal()
        injector = getattr(self.disk, "injector", None)
        report = ExecutionReport()
        self.disk.reset_high_water()
        for i, op in enumerate(plan):
            # Gate *before* journaling the op as in flight: an op-boundary
            # crash must leave a journal that says "between ops", so that
            # recovery replays from `completed` without repairing anything.
            if injector is not None:
                injector.before_op()
            journal.in_flight = i
            self._persist_journal()
            self.execute_op(op, report)
            journal.completed = i + 1
            journal.in_flight = None
            self._persist_journal()
        report.peak_bytes = self.disk.high_water_bytes
        return report


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------


def sweep_orphan_extents(
    wave: WaveIndex, extra_disks: Iterable[SimulatedDisk] = ()
) -> int:
    """Free every live extent no binding references; return the count freed.

    Mark-and-sweep over the wave index's reachable set: an interrupted op's
    partial work (a half-built shadow, an abandoned temporary) is exactly
    the set of live extents not referenced by any binding.  ``extra_disks``
    widens the sweep to devices the bindings do not (yet) reference — e.g.
    a rebalance or rebuild target that an interrupted cross-device copy
    left partial extents on.
    """
    referenced: set[int] = set()
    disks: set[SimulatedDisk] = {wave.disk, *extra_disks}
    for index in wave.bindings.values():
        disks.add(index.disk)
        for extent in index.referenced_extents():
            referenced.add(extent.extent_id)
    freed = 0
    for disk in disks:
        for extent in disk.live_extent_list():
            if extent.extent_id not in referenced:
                disk.free(extent)
                freed += 1
    return freed


def _days_before_op(journal: TransitionJournal, op_index: int) -> SymbolicState:
    """Replay the journal symbolically up to (not including) ``op_index``."""
    names = [name for name in journal.pre_days]
    sym = SymbolicState(names)
    sym.bindings = {name: set(days) for name, days in journal.pre_days.items()}
    for op in journal.plan[:op_index]:
        sym.apply(op)
    return sym


def restore_op_target(
    wave: WaveIndex,
    store: RecordStore,
    op: Op,
    pre_days: dict[str, set[int]],
) -> bool:
    """Restore ``op``'s target to its pre-op content; return whether it acted.

    An interrupted op may have partially mutated its target in place (an
    ``AddToIndex`` under the in-place technique, say), so the binding cannot
    be trusted; rebuilding it from the record store over its pre-op day-set
    (``pre_days``, e.g. a :meth:`~repro.core.wave.WaveIndex.days_by_name`
    snapshot taken before the op) makes re-running the op idempotent.
    Rename/Drop do no I/O and therefore cannot be interrupted mid-op; a
    target that did not exist before the op leaves only unreferenced
    partial work, which :func:`sweep_orphan_extents` reclaims.

    The rebuild's I/O is charged to the target's device — repair is real
    work on the same cost clocks as everything else.
    """
    if isinstance(op, (RenameOp, DropOp)):
        return False
    target = getattr(op, "target", None)
    if target is None:
        return False
    expected = pre_days.get(target)
    current = wave.get_optional(target)
    if expected is None:
        return False
    disk = current.disk if current is not None else wave.disk
    if current is not None:
        wave.unbind(target)
        current.drop()
    rebuilt = build_index_from_store(
        disk, wave.config, store, expected, name=target
    )
    wave.bind(target, rebuilt)
    return True


def _repair_in_flight(
    journal: TransitionJournal, wave: WaveIndex, store: RecordStore
) -> None:
    """Restore the in-flight op's target to its journaled pre-op content."""
    i = journal.in_flight
    if i is None or i < journal.completed:
        return
    if i >= len(journal.plan):
        raise RecoveryError(
            f"journal in_flight={i} is outside the plan of {len(journal.plan)} ops"
        )
    pre = {
        name: set(days)
        for name, days in _days_before_op(journal, i).bindings.items()
    }
    restore_op_target(wave, store, journal.plan[i], pre)


def recover_transition(
    journal: TransitionJournal,
    wave: WaveIndex,
    store: RecordStore,
    technique: UpdateTechnique = UpdateTechnique.SIMPLE_SHADOW,
) -> ExecutionReport:
    """Roll an interrupted transition forward to completion.

    Operates on the *surviving* disk state (the same :class:`WaveIndex` /
    disk the crashed run used): sweeps orphans, repairs the in-flight op's
    target, then replays the plan's remaining ops.  Idempotent — recovering
    an already-finished journal is a no-op.

    Args:
        journal: The crashed transition's journal.
        wave: The wave index as the crash left it.
        store: Record store (source of truth for rebuilds and replays).
        technique: Update technique for the replay.

    Returns:
        The replay's :class:`ExecutionReport` (recovery work only).
    """
    if journal.completed > len(journal.plan):
        raise RecoveryError(
            f"journal claims {journal.completed} completed ops for a plan "
            f"of {len(journal.plan)}"
        )
    sweep_orphan_extents(wave)
    _repair_in_flight(journal, wave, store)
    executor = PlanExecutor(wave, store, technique)
    remainder = journal.plan[journal.completed :]
    report = executor.execute(remainder)
    journal.completed = len(journal.plan)
    journal.in_flight = None
    return report


# ----------------------------------------------------------------------
# Reshard journal (cluster topology changes)
# ----------------------------------------------------------------------

#: Reshard journal format marker, independent of the transition journal.
RESHARD_JOURNAL_VERSION = 1


class ReshardPhase:
    """Lifecycle phases of a journaled topology change (split or merge).

    ``PLANNED → COPYING → COPIED → CATCHUP → SWAPPED → DONE`` on success;
    any phase may instead terminate in ``ABORTED``.  The swap record is
    the commit point: a crash strictly before ``SWAPPED`` aborts (the old
    topology is still routing, so dropping the partial children restores
    the exact pre-reshard state); a crash at or after ``SWAPPED`` rolls
    forward (the new topology is already routing, so recovery finishes
    the parents' cleanup).
    """

    PLANNED = "planned"
    COPYING = "copying"
    COPIED = "copied"
    CATCHUP = "catchup"
    SWAPPED = "swapped"
    DONE = "done"
    ABORTED = "aborted"

    ORDER = (PLANNED, COPYING, COPIED, CATCHUP, SWAPPED, DONE)


@dataclass
class ReshardJournal:
    """Durable record of one topology change's progress.

    Attributes:
        kind: ``"split"`` or ``"merge"``.
        day: The day the change executes (children catch up to this day).
        source_shards: Shard ids being replaced (one for a split, two for
            a merge).
        partitioner_before: ``describe()`` of the routing table in force.
        partitioner_after: ``describe()`` of the table to swap in.
        split_key: The range split key, if any (``None`` for slot-hash).
        phase: Current :class:`ReshardPhase` value.
        target_devices: Array device indexes provisioned for the children.
        copies_done: Completed constituent copies (progress within
            ``COPYING``).
        catchup: Per-child :class:`TransitionJournal` dicts once catch-up
            starts, in child order.
    """

    kind: str
    day: int
    source_shards: list[int]
    partitioner_before: dict
    partitioner_after: dict
    split_key: str | None = None
    phase: str = ReshardPhase.PLANNED
    target_devices: list[int] = field(default_factory=list)
    copies_done: int = 0
    catchup: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in ("split", "merge"):
            raise RecoveryError(f"unknown reshard kind {self.kind!r}")

    def advance(self, phase: str) -> None:
        """Move to ``phase``, enforcing forward-only progress.

        ``ABORTED`` is reachable from any non-terminal phase; the ordered
        phases must advance monotonically (a journal that moves backwards
        indicates a bookkeeping bug, not a crash).
        """
        if self.phase in (ReshardPhase.DONE, ReshardPhase.ABORTED):
            raise RecoveryError(
                f"reshard journal already terminal ({self.phase})"
            )
        if phase == ReshardPhase.ABORTED:
            self.phase = phase
            return
        order = ReshardPhase.ORDER
        if phase not in order or order.index(phase) <= order.index(self.phase):
            raise RecoveryError(
                f"cannot advance reshard journal from {self.phase!r} "
                f"to {phase!r}"
            )
        self.phase = phase

    @property
    def committed(self) -> bool:
        """Return whether the routing swap has been journaled.

        ``True`` means recovery must roll the change *forward* (finish
        cleanup under the new topology); ``False`` means recovery must
        abort (discard partial children, keep the old topology serving).
        """
        return self.phase in (
            ReshardPhase.SWAPPED,
            ReshardPhase.DONE,
        )

    @property
    def terminal(self) -> bool:
        """Return whether the change has fully finished or aborted."""
        return self.phase in (ReshardPhase.DONE, ReshardPhase.ABORTED)

    def to_dict(self) -> dict:
        """Serialise to a JSON-safe dict."""
        return {
            "version": RESHARD_JOURNAL_VERSION,
            "kind": self.kind,
            "day": self.day,
            "source_shards": list(self.source_shards),
            "partitioner_before": self.partitioner_before,
            "partitioner_after": self.partitioner_after,
            "split_key": self.split_key,
            "phase": self.phase,
            "target_devices": list(self.target_devices),
            "copies_done": self.copies_done,
            "catchup": [dict(j) for j in self.catchup],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ReshardJournal":
        """Reconstruct a journal serialized by :meth:`to_dict`."""
        if payload.get("version") != RESHARD_JOURNAL_VERSION:
            raise RecoveryError(
                f"unsupported reshard journal version {payload.get('version')!r}"
            )
        return cls(
            kind=payload["kind"],
            day=payload["day"],
            source_shards=list(payload["source_shards"]),
            partitioner_before=payload["partitioner_before"],
            partitioner_after=payload["partitioner_after"],
            split_key=payload.get("split_key"),
            phase=payload["phase"],
            target_devices=list(payload.get("target_devices", [])),
            copies_done=payload.get("copies_done", 0),
            catchup=[dict(j) for j in payload.get("catchup", [])],
        )

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ReshardJournal":
        """Parse a journal produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Retune journal (online scheme changes on one replica)
# ----------------------------------------------------------------------

#: Retune journal format marker, independent of the other journals.
RETUNE_JOURNAL_VERSION = 1


@dataclass
class RetuneJournal:
    """Durable record of one replica's online scheme change.

    A retune rebuilds one replica's wave index under a new
    (scheme, n, technique) design on a spare device, catches it up to the
    decision day, and swaps it in — the advisor-side analogue of a
    reshard, with the same commit-point semantics.  Phases reuse
    :class:`ReshardPhase`: a crash strictly before ``SWAPPED`` aborts
    (the old design is still serving, so the partial build is dropped);
    a crash at or after ``SWAPPED`` rolls forward (the new design is
    serving, so recovery finishes draining the old device).

    Attributes:
        shard_id: The shard whose replica is being retuned.
        replica_id: The replica receiving the new design.
        day: The day the retune executes (new design catches up to it).
        scheme_before: ``describe()``-style label of the outgoing design.
        scheme_after: Label of the incoming design, e.g. ``"reindex+/3"``.
        technique_after: Update technique name for the incoming design.
        target_device: Array device index provisioned for the rebuild.
        builds_done: Completed constituent builds (progress within
            ``COPYING``).
        catchup: :class:`TransitionJournal` dicts once catch-up starts.
        phase: Current :class:`ReshardPhase` value.
    """

    shard_id: int
    replica_id: int
    day: int
    scheme_before: str
    scheme_after: str
    technique_after: str
    target_device: int | None = None
    builds_done: int = 0
    catchup: list[dict] = field(default_factory=list)
    phase: str = ReshardPhase.PLANNED

    def advance(self, phase: str) -> None:
        """Move to ``phase``, enforcing forward-only progress."""
        if self.phase in (ReshardPhase.DONE, ReshardPhase.ABORTED):
            raise RecoveryError(
                f"retune journal already terminal ({self.phase})"
            )
        if phase == ReshardPhase.ABORTED:
            self.phase = phase
            return
        order = ReshardPhase.ORDER
        if phase not in order or order.index(phase) <= order.index(self.phase):
            raise RecoveryError(
                f"cannot advance retune journal from {self.phase!r} "
                f"to {phase!r}"
            )
        self.phase = phase

    @property
    def committed(self) -> bool:
        """Return whether the design swap has been journaled."""
        return self.phase in (ReshardPhase.SWAPPED, ReshardPhase.DONE)

    @property
    def terminal(self) -> bool:
        """Return whether the retune has fully finished or aborted."""
        return self.phase in (ReshardPhase.DONE, ReshardPhase.ABORTED)

    def to_dict(self) -> dict:
        """Serialise to a JSON-safe dict."""
        return {
            "version": RETUNE_JOURNAL_VERSION,
            "shard_id": self.shard_id,
            "replica_id": self.replica_id,
            "day": self.day,
            "scheme_before": self.scheme_before,
            "scheme_after": self.scheme_after,
            "technique_after": self.technique_after,
            "target_device": self.target_device,
            "builds_done": self.builds_done,
            "catchup": [dict(j) for j in self.catchup],
            "phase": self.phase,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RetuneJournal":
        """Reconstruct a journal serialized by :meth:`to_dict`."""
        if payload.get("version") != RETUNE_JOURNAL_VERSION:
            raise RecoveryError(
                f"unsupported retune journal version {payload.get('version')!r}"
            )
        return cls(
            shard_id=payload["shard_id"],
            replica_id=payload["replica_id"],
            day=payload["day"],
            scheme_before=payload["scheme_before"],
            scheme_after=payload["scheme_after"],
            technique_after=payload["technique_after"],
            target_device=payload.get("target_device"),
            builds_done=payload.get("builds_done", 0),
            catchup=[dict(j) for j in payload.get("catchup", [])],
            phase=payload["phase"],
        )

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RetuneJournal":
        """Parse a journal produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


def resume_scheme(journal: TransitionJournal) -> WaveScheme:
    """Resurrect the planner from the journal's scheme snapshot.

    The returned scheme has already incorporated ``journal.day``; drive it
    with ``transition_ops(journal.day + 1)`` next.
    """
    if journal.scheme_state is None:
        raise RecoveryError(
            "journal carries no scheme state; pass scheme_state= to "
            "execute_journaled() to enable scheme resurrection"
        )
    return restore_scheme(
        {"version": CHECKPOINT_VERSION, "scheme": journal.scheme_state}
    )

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

This journal is per-op and lives inside one wave index.  The journal of a
whole staged change (split, merge, retune — :class:`~repro.core.staged.ChangeJournal`)
is a different record, kept in :mod:`repro.core.staged` beside the pipeline
that writes it; it embeds one of these per catch-up.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..errors import RecoveryError
from ..index.builder import build_index_from_store
from ..index.updates import UpdateTechnique
from ..storage.array import DiskArray
from ..storage.disk import SimulatedDisk
from .boundary import Boundary, Steps
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
        wave, store, technique, span: As for :class:`PlanExecutor`.
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
        span: DiskArray | None = None,
        journal_sink: Callable[[TransitionJournal], None] | None = None,
    ) -> None:
        super().__init__(wave, store, technique, span=span)
        self.journal: TransitionJournal | None = None
        self.journal_sink = journal_sink

    def _persist_journal(self) -> None:
        if self.journal_sink is not None and self.journal is not None:
            self.journal_sink(self.journal)

    def journaled_steps(
        self,
        plan: list[Op],
        *,
        day: int,
        scheme_state: dict | None = None,
        shard: int | None = None,
        replica: int | None = None,
    ) -> Steps:
        """Run ``plan`` with write-ahead journaling, one boundary per op.

        Yields an ``"op"`` :class:`~repro.core.boundary.Boundary` before
        each op (``ordinal`` = ops completed), while the journal says
        "between ops": a crash thrown in there leaves a journal that
        recovery replays from ``completed`` without repairing anything.
        On a :class:`~repro.errors.SimulatedCrash` (or any other failure)
        the journal stays on :attr:`journal`, ready for
        :func:`recover_transition`.  Returns the plan's report.
        """
        journal = TransitionJournal.begin(
            day=day,
            plan=plan,
            pre_days=self.wave.days_by_name(),
            scheme_state=scheme_state,
        )
        self.journal = journal
        self._persist_journal()
        report = ExecutionReport()
        span = self.span
        span.reset_high_water()
        devices = tuple(span.devices)
        for i, op in enumerate(plan):
            yield Boundary(
                day, "op", type(op).__name__, i, shard, replica, devices
            )
            journal.in_flight = i
            self._persist_journal()
            self.execute_op(op, report)
            journal.completed = i + 1
            journal.in_flight = None
            self._persist_journal()
        report.peak_bytes = span.high_water_bytes
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


def resume_scheme(journal: TransitionJournal) -> WaveScheme:
    """Resurrect the planner from the journal's scheme snapshot.

    The returned scheme has already incorporated ``journal.day``; drive it
    with ``transition_ops(journal.day + 1)`` next.
    """
    if journal.scheme_state is None:
        raise RecoveryError(
            "journal carries no scheme state; pass scheme_state= to "
            "journaled_steps() to enable scheme resurrection"
        )
    return restore_scheme(
        {"version": CHECKPOINT_VERSION, "scheme": journal.scheme_state}
    )

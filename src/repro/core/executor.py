"""Executes scheme-emitted operation plans against the storage substrate.

The executor is the single place where the three update techniques of
Section 2.1 meet the six schemes of Sections 3–4: schemes emit technique-
agnostic plans (:mod:`repro.core.ops`), and the executor realises each op
under the configured :class:`~repro.index.updates.UpdateTechnique`, charging
simulated time to the op's phase and keeping the wave index's bindings
consistent (shadow swap-then-drop ordering throughout).

Technique rules, from the paper:

* Constituent bindings are updated under the configured technique.
* Temporary bindings are always updated in place — "if some temporary index
  needs to be updated, we require no additional space since queries are
  executed only on constituent indexes" (Section 5).
* Under packed shadowing, copies are smart copies (the result is packed)
  and incremental inserts cost ``Build`` rather than ``Add`` (Table 11) —
  both emerge from routing through :func:`~repro.index.updates.packed_rewrite`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SchemeError
from ..index.config import IndexConfig
from ..index.constituent import ConstituentIndex
from ..index.updates import (
    UpdateTechnique,
    clone_index,
    packed_rewrite,
)
from ..index.builder import build_index_from_store
from ..storage.array import DiskArray
from ..storage.disk import SimulatedDisk
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
from .wave import WaveIndex


@dataclass
class PhaseSeconds:
    """Simulated seconds charged to each phase while executing a plan."""

    precompute: float = 0.0
    transition: float = 0.0
    post: float = 0.0

    def add(self, phase: Phase, seconds: float) -> None:
        """Accumulate ``seconds`` into ``phase``'s bucket."""
        if phase is Phase.PRECOMPUTE:
            self.precompute += seconds
        elif phase is Phase.TRANSITION:
            self.transition += seconds
        else:
            self.post += seconds

    @property
    def precomputation(self) -> float:
        """Return the paper's "pre-computation" measure (pre + post work)."""
        return self.precompute + self.post

    @property
    def total(self) -> float:
        """Return all maintenance seconds."""
        return self.precompute + self.transition + self.post

    def __iadd__(self, other: "PhaseSeconds") -> "PhaseSeconds":
        self.precompute += other.precompute
        self.transition += other.transition
        self.post += other.post
        return self


@dataclass
class ExecutionReport:
    """Outcome of executing one plan (one day's maintenance)."""

    seconds: PhaseSeconds = field(default_factory=PhaseSeconds)
    ops_executed: int = 0
    peak_bytes: int = 0


class PlanExecutor:
    """Applies operation plans to a :class:`WaveIndex`.

    Args:
        wave: The wave index whose bindings the plans manipulate.
        store: Source of day batches for Build/Add operations.
        technique: Update technique for constituent indexes.
        span: The devices the wave's indexes live on; defaults to the
            wave's own disk.  Index creations rotate over the span, so a
            REINDEX-family rebuild streams to a device the serving
            constituents do not occupy (the paper's Section-8 "building
            new constituent indices on separate disks").
    """

    def __init__(
        self,
        wave: WaveIndex,
        store: RecordStore,
        technique: UpdateTechnique = UpdateTechnique.SIMPLE_SHADOW,
        *,
        span: DiskArray | None = None,
    ) -> None:
        self.wave = wave
        self.store = store
        self.technique = technique
        self.span = span if span is not None else DiskArray([wave.disk])
        self._next_creation_device = 0

    def creation_disk(self) -> SimulatedDisk:
        """Return the device the next index creation lands on.

        Creations (Build and CreateEmpty targets) take the span's devices
        in turn, whatever their name; every other op reads and writes
        wherever its index lives (``index.disk``: a copy or a shadow lands
        beside its source), so per-device accounting follows the bytes.
        On a one-device span this is always the wave's disk.
        """
        devices = self.span.devices
        device = self._next_creation_device
        self._next_creation_device = (device + 1) % len(devices)
        return devices[device]

    @property
    def config(self) -> IndexConfig:
        """Return the shared index configuration."""
        return self.wave.config

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------

    def execute(self, plan: list[Op]) -> ExecutionReport:
        """Run ``plan`` in order; return phase timings and the space peak
        (the span's summed per-device high-water marks)."""
        report = ExecutionReport()
        self.span.reset_high_water()
        for op in plan:
            self.execute_op(op, report)
        report.peak_bytes = self.span.high_water_bytes
        return report

    def execute_op(self, op: Op, report: ExecutionReport) -> None:
        """Run one op, charging the time it took across the span to
        ``report``."""
        span = self.span
        before = span.total_clock
        if isinstance(op, UpdateOp):
            self._apply_update(op, report)
        else:
            self._apply(op)
            report.seconds.add(op.phase, span.total_clock - before)
        report.ops_executed += 1

    def _apply(self, op: Op) -> None:
        if isinstance(op, BuildOp):
            self._do_build(op)
        elif isinstance(op, CreateEmptyOp):
            self.wave.bind(
                op.target,
                ConstituentIndex.create_empty(
                    self.creation_disk(), self.config, name=op.target
                ),
            )
        elif isinstance(op, AddOp):
            self._do_add(op.target, op.days)
        elif isinstance(op, DeleteOp):
            self._do_delete(op.target, op.days)
        elif isinstance(op, CopyOp):
            self._do_copy(op)
        elif isinstance(op, RenameOp):
            index = self.wave.unbind(op.source)
            self.wave.bind(op.target, index)
        elif isinstance(op, DropOp):
            index = self.wave.unbind(op.target)
            index.drop()
        else:
            raise SchemeError(f"unknown operation: {op!r}")

    # ------------------------------------------------------------------
    # Individual operations
    # ------------------------------------------------------------------

    def _do_build(self, op: BuildOp) -> None:
        index = build_index_from_store(
            self.creation_disk(),
            self.config,
            self.store,
            op.days,
            name=op.target,
        )
        self.wave.bind(op.target, index)

    def _technique_for(self, name: str) -> UpdateTechnique:
        if self.wave.is_constituent(name):
            return self.technique
        return UpdateTechnique.IN_PLACE

    def _do_add(self, target: str, days: tuple[int, ...]) -> None:
        index = self.wave.get(target)
        grouped = self.store.grouped_for(days)
        source_bytes = self.store.data_bytes_for(days)
        technique = self._technique_for(target)
        if technique is UpdateTechnique.IN_PLACE:
            index.insert_postings(grouped, days)
            return
        if technique is UpdateTechnique.SIMPLE_SHADOW:
            shadow = clone_index(index)
            shadow.insert_postings(grouped, days)
            self.wave.bind(target, shadow)
            return
        result = packed_rewrite(
            index, grouped, days, delete_days=(), source_bytes=source_bytes
        )
        self.wave.bind(target, result)

    def _do_delete(self, target: str, days: tuple[int, ...]) -> None:
        index = self.wave.get(target)
        technique = self._technique_for(target)
        if technique is UpdateTechnique.IN_PLACE:
            index.delete_days(days)
            return
        if technique is UpdateTechnique.SIMPLE_SHADOW:
            shadow = clone_index(index)
            shadow.delete_days(days)
            self.wave.bind(target, shadow)
            return
        result = packed_rewrite(index, {}, (), delete_days=days)
        self.wave.bind(target, result)

    def _do_copy(self, op: CopyOp) -> None:
        source = self.wave.get(op.source)
        if self._technique_for(op.target) is UpdateTechnique.PACKED_SHADOW:
            copy = packed_rewrite(source, {}, (), delete_days=(), name=op.target)
        else:
            copy = clone_index(source, name=op.target)
        self.wave.bind(op.target, copy)

    def _apply_update(self, op: UpdateOp, report: ExecutionReport) -> None:
        """Fused delete+insert sharing one shadow (see :class:`UpdateOp`)."""
        index = self.wave.get(op.target)
        # All of the update's I/O lands on the index's own device (shadow
        # copies are local), so time against that device's clock.
        disk = index.disk
        grouped = self.store.grouped_for(op.add_days)
        source_bytes = self.store.data_bytes_for(op.add_days)
        technique = self._technique_for(op.target)

        if technique is UpdateTechnique.PACKED_SHADOW:
            # One smart copy folds the delete in; needs the new data, so the
            # whole rewrite is transition work (Table 11, DEL row).
            before = disk.clock
            result = packed_rewrite(
                index,
                grouped,
                op.add_days,
                delete_days=op.delete_days,
                source_bytes=source_bytes,
            )
            self.wave.bind(op.target, result)
            report.seconds.add(Phase.TRANSITION, disk.clock - before)
            return

        # In-place / simple shadow: the copy and the delete can run before
        # the new data arrives (Table 10, DEL row: (W/n)·CP + Del as
        # pre-computation; Add as transition).
        before = disk.clock
        if technique is UpdateTechnique.SIMPLE_SHADOW:
            work = clone_index(index)
        else:
            work = index
        work.delete_days(op.delete_days)
        report.seconds.add(Phase.PRECOMPUTE, disk.clock - before)

        before = disk.clock
        work.insert_postings(grouped, op.add_days)
        if work is not index:
            self.wave.bind(op.target, work)
        report.seconds.add(Phase.TRANSITION, disk.clock - before)

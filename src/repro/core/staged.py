"""Staged changes: one copy → catch-up → swap pipeline and its journal.

Section 3 of the paper has one idea for changing an index that is being
queried: build the replacement beside the live one, catch it up, swap,
then free the old.  The cluster applies it at two journaled scales — a
shard (split / merge, :mod:`repro.cluster.elastic`) and a design
(retune, :mod:`repro.advisor.engine`) — and this module is the one place
that knows how:

* :class:`StagedChangeRunner` executes every journaled change through the
  same phases, ``plan → provision → build → catch-up → swap → cleanup``,
  as a boundary stream (:mod:`repro.core.boundary`): it yields a
  :class:`~repro.core.boundary.Boundary` of the change's kind before every
  step, and the catch-ups' op boundaries between them.  A *kind* says
  only what differs: what to validate, how many
  devices it needs, which constituents to build, what the swap installs
  and what cleanup frees.
* The **policy**: the swap record is the commit point.  A fault strictly
  before it *aborts* — partial work is dropped, the target devices swept,
  and the old thing keeps serving untouched; a fault at or after it rolls
  *forward* once through the idempotent cleanup.  Either way the change's
  crash points die with it: every device it touched is disarmed on exit.
* The **format**: :class:`ChangeJournal` records ``kind``, ``day``, a
  kind-specific ``subject`` and the progress through :class:`ChangePhase`.
  The per-op :class:`~repro.core.recovery.TransitionJournal` of each
  catch-up is embedded in it, not merged with it: that one journals ops
  inside a single wave index and is what ``recover_transition`` replays.

Replica rebuild (:func:`repro.cluster.selfheal.rebuild_steps`) has no
commit point and resumes a crash in place instead of aborting, so it is
not a journaled kind; it shares the leaves below (:func:`provision_spares`,
:func:`retry_transients`, :func:`abort_reason`, :func:`discard_partial`,
:func:`disarm_crash`, :class:`ChangeAborted`).
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable

from ..errors import (
    ClusterError,
    DeviceFailure,
    FaultError,
    OutOfSpaceError,
    RecoveryError,
    SimulatedCrash,
    TransientIOError,
)
from ..storage.array import DiskArray
from ..storage.disk import SimulatedDisk
from ..storage.faults import RetryPolicy
from .boundary import Boundary, Steps
from .recovery import JournaledExecutor, sweep_orphan_extents
from .wave import WaveIndex

#: Everything a staged change absorbs into an abort / roll-forward.
#: ``OutOfSpaceError`` is a :class:`~repro.errors.StorageError` sibling of
#: ``FaultError``, not a subclass — it must be listed explicitly.
_STAGED_FAULTS = (FaultError, OutOfSpaceError, SimulatedCrash)

#: Device-level faults swallowed by best-effort cleanup.
_CLEANUP_FAULTS = (FaultError, OutOfSpaceError)

#: The single fault → abort-reason table.
_REASONS: tuple[tuple[type[BaseException], str], ...] = (
    (SimulatedCrash, "crash"),
    (OutOfSpaceError, "space"),
    (DeviceFailure, "device-failure"),
    (TransientIOError, "flaky"),
)

#: Change journal format marker, independent of the transition journal.
CHANGE_JOURNAL_VERSION = 1

#: ``subject`` keys every journal of a kind must carry.
_SUBJECT_KEYS: dict[str, tuple[str, ...]] = {
    "split": (
        "source_shards", "partitioner_before", "partitioner_after", "split_key",
    ),
    "merge": ("source_shards", "partitioner_before", "partitioner_after"),
    "retune": (
        "shard_id", "replica_id", "scheme_before", "scheme_after",
        "technique_after",
    ),
}


class ChangeAborted(ClusterError):
    """A staged change could not complete; what it replaces still serves.

    ``kind`` names the pipeline (``"split"``, ``"merge"``, ``"retune"``,
    ``"rebuild"``) and ``reason`` why it stopped — ``"crash"``,
    ``"space"``, ``"device-failure"``, ``"flaky"`` from
    :func:`abort_reason`, or a kind's
    own refusal (``"shard-gone"``, ``"fixed-partitioner"``,
    ``"partitioner-refused"``, ``"designs-differ"``, ``"dark-source"``,
    ``"no-split-key"``, ``"replica-gone"``) — so day stats can say why.  ``journaled`` says
    whether the change had opened its journal; a kind's refusal comes
    before it.  The fault, if any, is the exception's ``__cause__``.
    """

    def __init__(
        self, message: str, *, kind: str, reason: str, journaled: bool = False
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.reason = reason
        self.journaled = journaled


class ChangePhase:
    """Lifecycle phases of a journaled staged change.

    ``PLANNED → COPYING → COPIED → CATCHUP → SWAPPED → DONE`` on success;
    any phase may instead terminate in ``ABORTED``.  The swap record is
    the commit point: a crash strictly before ``SWAPPED`` aborts (the old
    topology / design is still serving, so dropping the partial build
    restores the exact pre-change state); a crash at or after ``SWAPPED``
    rolls forward (the replacement is already serving, so recovery
    finishes freeing what it replaced).
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
class ChangeJournal:
    """Durable record of one staged change's progress.

    The journal is input from outside the process: construction *and*
    :meth:`from_dict` reject an unknown ``kind``, an unknown ``phase``
    and a ``subject`` missing one of its kind's required keys.

    Attributes:
        kind: ``"split"``, ``"merge"`` or ``"retune"``.
        day: The day the change executes (the replacement catches up to
            this day).
        subject: What is being changed, by kind.  *split* / *merge*:
            ``source_shards``, ``partitioner_before`` /
            ``partitioner_after`` (``describe()`` of the routing tables)
            and, for a split, ``split_key`` (``None`` for slot-hash).
            *retune*: ``shard_id``, ``replica_id``, ``scheme_before`` /
            ``scheme_after`` (design labels) and ``technique_after``.
        phase: Current :class:`ChangePhase` value.
        target_devices: Array device indexes provisioned for the build.
        units_done: Completed build units (progress within ``COPYING``).
        catchup: One :class:`~repro.core.recovery.TransitionJournal` dict
            per finished catch-up, in unit order.
    """

    kind: str
    day: int
    subject: dict[str, Any]
    phase: str = ChangePhase.PLANNED
    target_devices: list[int] = field(default_factory=list)
    units_done: int = 0
    catchup: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        required = _SUBJECT_KEYS.get(self.kind)
        if required is None:
            raise RecoveryError(f"unknown staged change kind {self.kind!r}")
        missing = [key for key in required if key not in self.subject]
        if missing:
            raise RecoveryError(
                f"{self.kind} journal subject lacks {', '.join(missing)}"
            )
        if self.phase not in (*ChangePhase.ORDER, ChangePhase.ABORTED):
            raise RecoveryError(f"unknown change journal phase {self.phase!r}")

    def advance(self, phase: str) -> None:
        """Move to ``phase``, enforcing forward-only progress.

        ``ABORTED`` is reachable from any non-terminal phase; the ordered
        phases must advance monotonically (a journal that moves backwards
        indicates a bookkeeping bug, not a crash).
        """
        if self.terminal:
            raise RecoveryError(
                f"{self.kind} journal already terminal ({self.phase})"
            )
        if phase == ChangePhase.ABORTED:
            self.phase = phase
            return
        order = ChangePhase.ORDER
        if phase not in order or order.index(phase) <= order.index(self.phase):
            raise RecoveryError(
                f"cannot advance {self.kind} journal from {self.phase!r} "
                f"to {phase!r}"
            )
        self.phase = phase

    @property
    def committed(self) -> bool:
        """Return whether the swap has been journaled.

        ``True`` means recovery must roll the change *forward* (finish
        cleanup under what was swapped in); ``False`` means recovery must
        abort (discard the partial build, keep the old thing serving).
        """
        return self.phase in (ChangePhase.SWAPPED, ChangePhase.DONE)

    @property
    def terminal(self) -> bool:
        """Return whether the change has fully finished or aborted."""
        return self.phase in (ChangePhase.DONE, ChangePhase.ABORTED)

    def to_dict(self) -> dict:
        """Serialise to a JSON-safe dict."""
        return {
            "version": CHANGE_JOURNAL_VERSION,
            "kind": self.kind,
            "day": self.day,
            "subject": dict(self.subject),
            "phase": self.phase,
            "target_devices": list(self.target_devices),
            "units_done": self.units_done,
            "catchup": [dict(j) for j in self.catchup],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChangeJournal":
        """Reconstruct (and validate) a journal serialized by :meth:`to_dict`."""
        if payload.get("version") != CHANGE_JOURNAL_VERSION:
            raise RecoveryError(
                f"unsupported change journal version {payload.get('version')!r}"
            )
        try:
            return cls(
                kind=payload["kind"],
                day=payload["day"],
                subject=dict(payload["subject"]),
                phase=payload["phase"],
                target_devices=list(payload.get("target_devices", [])),
                units_done=payload.get("units_done", 0),
                catchup=[dict(j) for j in payload.get("catchup", [])],
            )
        except KeyError as exc:
            raise RecoveryError(f"change journal lacks {exc}") from None

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChangeJournal":
        """Parse a journal produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Leaves (shared with replica rebuild)
# ----------------------------------------------------------------------


def disarm_crash(*devices: SimulatedDisk) -> None:
    """Disarm any crash points on the devices (the process 'restarted')."""
    for device in devices:
        injector = getattr(device, "injector", None)
        if injector is not None:
            injector.disarm()


def discard_partial(wave: WaveIndex, devices: Iterable[SimulatedDisk]) -> None:
    """Drop every binding of ``wave`` and sweep ``devices``, its span
    (idempotent)."""
    for name in list(wave.bindings):
        with suppress(*_CLEANUP_FAULTS):
            wave.unbind(name).drop()
    with suppress(*_CLEANUP_FAULTS):
        sweep_orphan_extents(wave, devices)


def provision_spares(
    make_spare: Callable[[int], SimulatedDisk], array, n: int
) -> list[SimulatedDisk]:
    """Make ``n`` fresh devices (``make_spare(offset)``, all before the
    first is added), add them to ``array`` and return them in that
    order."""
    devices = [make_spare(offset) for offset in range(n)]
    for device in devices:
        array.add_device(device)
    return devices


def abort_reason(exc: BaseException) -> str:
    """Map an escaped fault to its abort reason; re-raise a non-fault."""
    for fault, reason in _REASONS:
        if isinstance(exc, fault):
            return reason
    raise exc  # not a fault: bookkeeping bug, propagate loudly


def retry_transients(
    attempt: Callable[[], Any],
    wave: WaveIndex,
    monitor,
    repair: Callable[[], None],
):
    """Run ``attempt()`` under the cluster retry policy; return its result.

    A :class:`~repro.errors.TransientIOError` that escaped the device's
    own retry loop is retried up to ``RetryPolicy.max_attempts`` tries,
    with the backoff charged to the target's clock (``wave.disk``),
    the retry noted on ``monitor`` (``None`` = no self-healing: default
    policy, nothing noted) and ``repair()`` — which sweeps the failed
    attempt's partial work — run before the next try.  The last
    transient propagates.
    """
    retry = monitor.retry if monitor is not None else RetryPolicy()
    attempts = 0
    while True:
        try:
            return attempt()
        except TransientIOError:
            attempts += 1
            if attempts >= retry.max_attempts:
                raise
            wave.disk.advance(retry.delay_before_retry(attempts))
            if monitor is not None:
                monitor.note_retry(attempts)
            repair()


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StagedOutcome:
    """What the runner measured, handed to the kind's ``report``."""

    #: The finished journal (``units_done`` = constituents built).
    journal: ChangeJournal
    #: Target device → its clock when it was provisioned.
    clock_before: dict[SimulatedDisk, float]
    #: Seconds the build charged to the source devices.
    source_seconds: float
    bytes_built: int
    #: Seconds the catch-ups charged to the targets.
    catchup_seconds: float
    crash_recoveries: int

    def seconds_on(self, span: DiskArray) -> float:
        """Return the seconds the change charged to ``span``'s devices
        (targets of this change) since they were provisioned."""
        before = self.clock_before
        return span.total_clock - sum(before[device] for device in span.devices)


class StagedChangeRunner:
    """Runs journaled staged changes against one cluster's devices.

    :meth:`steps` executes one staged change at the start of a day —
    before the day's plans are drawn — and either commits it (the
    replacement caught up to the day and swapped in, what it replaced
    freed) or raises :class:`ChangeAborted` with the old state fully
    intact.

    A change (a *kind*) says only what differs between kinds:

    * ``kind`` (a :class:`ChangeJournal` kind), ``counters`` (its counter
      prefix — ``.aborted`` and ``.crash_recoveries`` under it are the
      runner's) and ``str(change)`` for abort messages;
    * ``validate()`` — resolve what is being changed or refuse with
      :class:`ChangeAborted` (nothing was staged, so nothing is
      journaled; the runner counts it under ``.aborted``); afterwards
      ``subject()`` is the journal's subject, ``source_devices`` every
      device the build reads, ``n_targets`` how many fresh devices it
      needs;
    * ``stage(targets, day)`` — the replicas it builds over the
      provisioned devices, in build order, each an empty wave on a span
      of them;
    * ``builds(replica)`` — ``(name, build)`` pairs: ``build()`` returns
      the index the runner binds as ``name`` on the staged replica's wave;
    * ``swap(day)`` — install the replacement (the commit); return the
      executors it replaced, whose waves cleanup discards;
    * ``report(outcome)`` — bump the kind's completion counters and
      return its report from a :class:`StagedOutcome`.

    The runner reads a staged replica by its names alone: ``shard_id`` /
    ``replica_id`` (its steps' ``s{shard}/r{replica}``), ``wave``,
    ``span``, ``scheme`` (the planner whose day plan catches it up,
    shared by the replicas of one shard) and ``executor``'s ``store`` and
    ``technique``.

    :meth:`steps` yields a :class:`~repro.core.boundary.Boundary` before
    every pipeline step (``plan``, ``copy:s{g}/r{i}:{name}``,
    ``catchup:s{g}/r{i}``, ``swap``, ``cleanup``; ``devices`` are the ones
    the step is about to touch, target first).  A fault thrown in at a
    boundary, or armed there on a device, is classified like any other
    and resolved per the journal's commit point.  ``journal_sink`` mirrors
    the executor's journal sink (a stand-in for durable journal storage);
    every journal is also kept on :attr:`journals`.

    Args:
        make_spare: Makes the ``offset``-th fresh device of one
            acquisition (:func:`provision_spares`).
        array: The cluster's :class:`~repro.storage.array.DiskArray`.
        obs: Metrics registry for the ``{kind.counters}.*`` counters.
        monitor: The self-healing monitor (retry policy + retry notes),
            or ``None`` when self-healing is off.
    """

    def __init__(self, *, make_spare, array, obs, monitor=None) -> None:
        self.make_spare = make_spare
        self.array = array
        self.obs = obs
        self.monitor = monitor
        self.journal_sink: Callable[[ChangeJournal], None] | None = None
        self.journals: list[ChangeJournal] = []

    def _record(self, journal: ChangeJournal) -> None:
        if self.journal_sink is not None:
            self.journal_sink(journal)

    def _advance(self, journal: ChangeJournal, phase: str) -> None:
        journal.advance(phase)
        self._record(journal)

    @staticmethod
    def _free(retired) -> None:
        """Discard the replaced executors' waves, sweeping every device
        of their spans (idempotent)."""
        for executor in retired:
            discard_partial(executor.wave, executor.span.devices)

    def steps(self, change, *, day: int) -> Steps:
        """Run ``change`` for ``day``, yielding its boundaries; return its
        report or raise :class:`ChangeAborted`."""
        try:
            change.validate()
        except ChangeAborted:
            self.obs.counter(f"{change.counters}.aborted").inc()
            raise
        ordinal = 0

        def step(name, devices=(), shard=None, replica=None) -> Boundary:
            nonlocal ordinal
            ordinal += 1
            return Boundary(
                day, change.kind, name, ordinal - 1, shard, replica, devices
            )

        journal = ChangeJournal(change.kind, day, change.subject())
        self.journals.append(journal)
        self._record(journal)
        counters = change.counters
        sources = tuple(change.source_devices)
        targets: list[SimulatedDisk] = []
        staged: list = []
        bytes_built = 0
        try:
            try:
                yield step("plan")
                targets = provision_spares(
                    self.make_spare, self.array, change.n_targets
                )
                journal.target_devices = [
                    self.array.devices.index(d) for d in targets
                ]
                source_before = sum(d.clock for d in sources)
                clock_before = {d: d.clock for d in targets}
                staged = change.stage(targets, day)

                self._advance(journal, ChangePhase.COPYING)
                for replica in staged:
                    label = f"s{replica.shard_id}/r{replica.replica_id}"
                    span = tuple(replica.span.devices)
                    for name, build in change.builds(replica):
                        yield step(
                            f"copy:{label}:{name}",
                            (*span, *sources),
                            replica.shard_id,
                            replica.replica_id,
                        )
                        index = retry_transients(
                            build,
                            replica.wave,
                            self.monitor,
                            partial(sweep_orphan_extents, replica.wave, span),
                        )
                        replica.wave.bind(name, index)
                        bytes_built += index.allocated_bytes
                        journal.units_done += 1
                        self._record(journal)
                self._advance(journal, ChangePhase.COPIED)

                self._advance(journal, ChangePhase.CATCHUP)
                catchup_before = {d: d.clock for d in targets}
                scheme = None
                for replica in staged:
                    if replica.scheme is not scheme:
                        # Planning mutates the planner, and the replicas
                        # of one shard share it: plan the day once each.
                        scheme = replica.scheme
                        plan = list(scheme.transition_ops(day))
                        state = scheme.get_state()
                    yield step(
                        f"catchup:s{replica.shard_id}/r{replica.replica_id}",
                        tuple(replica.span.devices),
                        replica.shard_id,
                        replica.replica_id,
                    )
                    executor = JournaledExecutor(
                        replica.wave,
                        replica.executor.store,
                        replica.executor.technique,
                        span=replica.span,
                    )
                    yield from executor.journaled_steps(
                        plan,
                        day=day,
                        scheme_state=state,
                        shard=replica.shard_id,
                        replica=replica.replica_id,
                    )
                    journal.catchup.append(executor.journal.to_dict())
                    self._record(journal)
                catchup_seconds = sum(
                    d.clock - catchup_before[d] for d in targets
                )
                yield step("swap")
            except _STAGED_FAULTS as exc:
                # Strictly before the swap record: abort.  The sources
                # were only ever *read*, so discarding the staged waves
                # restores the exact pre-change state.  Disarm first —
                # the discard itself does I/O on the targets.
                reason = abort_reason(exc)
                disarm_crash(*sources, *targets)
                for replica in staged:
                    discard_partial(replica.wave, replica.span.devices)
                self._advance(journal, ChangePhase.ABORTED)
                self.obs.counter(f"{counters}.aborted").inc()
                raise ChangeAborted(
                    f"{change} aborted: {exc}",
                    kind=change.kind,
                    reason=reason,
                    journaled=True,
                ) from exc

            self._advance(journal, ChangePhase.SWAPPED)
            retired = change.swap(day)
            crash_recoveries = 0
            try:
                yield step("cleanup", sources)
                self._free(retired)
            except _STAGED_FAULTS:
                # At or after the swap record every fault rolls
                # *forward*: the dead process's crash points are gone and
                # the idempotent cleanup runs again, once.
                disarm_crash(*sources)
                crash_recoveries = 1
                self.obs.counter(f"{counters}.crash_recoveries").inc()
                self._free(retired)
            self._advance(journal, ChangePhase.DONE)
            return change.report(
                StagedOutcome(
                    journal=journal,
                    clock_before=clock_before,
                    source_seconds=sum(d.clock for d in sources) - source_before,
                    bytes_built=bytes_built,
                    catchup_seconds=catchup_seconds,
                    crash_recoveries=crash_recoveries,
                )
            )
        finally:
            # The change's process exits here, whichever way: a crash
            # point armed against it that never fired dies with it
            # instead of ambushing a later, ordinary maintenance pass.
            disarm_crash(*sources, *targets)


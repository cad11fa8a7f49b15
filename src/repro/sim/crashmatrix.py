"""Crash-matrix harness: prove recovery at every op boundary of every scheme.

For each scheme, the harness runs a seeded multi-cycle maintenance history
fault-free once — the *twin*, whose daily answers it records — and then
once per cell.  A cell is a history, a point in one transition and a
crash there: either at an op boundary of the transition's boundary stream
(:mod:`repro.core.boundary`; :func:`~repro.core.boundary.fault_at` throws
the crash in between ops) or inside an op (a
:class:`~repro.storage.faults.CrashPoint` armed to fire after the
transition's ``m``-th I/O).  After each crash it recovers via
:mod:`repro.core.recovery` (journal roll-forward, scheme resurrected from
the journal alone), finishes the run, and judges every day's answer
battery (:func:`~repro.core.oracle.battery`) against the twin's recorded
one with the twin oracle (:func:`~repro.core.oracle.check_against_twin`)
while asserting the post-transition invariants (zero leaked extents,
consistent bookkeeping).

This is the executable form of the substrate's robustness claim: *any*
transition of *any* scheme can die at *any* op boundary and recover to a
state query-indistinguishable from a run that never failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.boundary import Boundary, drive, fault_at
from ..core.invariants import InvariantViolation, check_wave_invariants
from ..core.oracle import battery, check_against_twin
from ..core.recovery import (
    JournaledExecutor,
    recover_transition,
    resume_scheme,
)
from ..core.records import RecordStore
from ..core.schemes import ALL_SCHEMES, scheme_by_name
from ..core.schemes.base import WaveScheme
from ..core.wave import WaveIndex
from ..errors import SimulatedCrash
from ..index.config import IndexConfig
from ..index.updates import UpdateTechnique
from ..storage.array import DiskArray
from ..storage.faults import CrashPoint, FaultInjector, FaultyDisk
from ..workloads.text import TextWorkloadConfig, build_store

#: Scheme names exercised by default: the paper's six.
DEFAULT_SCHEMES: tuple[str, ...] = tuple(s.name for s in ALL_SCHEMES)


@dataclass(frozen=True)
class CrashCell:
    """Outcome of one (scheme, transition day, crash point) experiment.

    ``kind`` is ``"op"`` (a crash at op boundary ``at``: ``at`` ops done)
    or ``"io"`` (a crash after the ``at``-th I/O of the crashed run).
    """

    scheme: str
    day: int
    kind: str
    at: int
    crashed: bool
    ok: bool
    detail: str = ""

    def describe(self) -> str:
        """Return a one-line rendering for reports."""
        where = f"after {'op' if self.kind == 'op' else 'I/O'} {self.at}"
        status = "ok" if self.ok else f"FAIL: {self.detail}"
        fired = "" if self.crashed else " (crash did not fire)"
        return f"day {self.day} {where}{fired}: {status}"


@dataclass
class CrashMatrixResult:
    """The full matrix across schemes, every cell in the order it ran."""

    window: int
    n_indexes: int
    seed: int
    cells: list[CrashCell] = field(default_factory=list)

    def by_scheme(self) -> dict[str, list[CrashCell]]:
        """Return the cells grouped by scheme, schemes in run order."""
        groups: dict[str, list[CrashCell]] = {}
        for cell in self.cells:
            groups.setdefault(cell.scheme, []).append(cell)
        return groups

    @property
    def failures(self) -> list[CrashCell]:
        """Return every failing cell."""
        return [c for c in self.cells if not c.ok]

    @property
    def ok(self) -> bool:
        """Return ``True`` when the whole matrix passed."""
        return not self.failures

    def summary(self) -> str:
        """Return a human-readable per-scheme summary."""
        lines = [
            f"crash matrix: W={self.window}, n={self.n_indexes}, "
            f"seed={self.seed}"
        ]
        for scheme, cells in self.by_scheme().items():
            failures = [c for c in cells if not c.ok]
            passed = len(cells) - len(failures)
            lines.append(f"  {scheme:<12} {passed}/{len(cells)} crash points ok")
            for cell in failures:
                lines.append(f"    {cell.describe()}")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"{verdict}: {len(self.cells) - len(self.failures)}/"
                     f"{len(self.cells)} cells")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------

#: Day snapshot: each probe's answer, then the window scan's.
_Snapshot = list[Any]


def _make_store(last_day: int, seed: int) -> RecordStore:
    """Build the small, seeded document store every run shares."""
    return build_store(
        last_day,
        TextWorkloadConfig(
            docs_per_day=3, words_per_doc=5, vocabulary=40, seed=seed
        ),
    )


def _probe_values(store: RecordStore, window: int) -> list[Any]:
    """Pick a deterministic handful of search values to probe each day."""
    values: set[Any] = set()
    for day in range(1, window + 1):
        for record in store.batch(day).records:
            values.update(record.values)
    return sorted(values)[:4]


def _snapshot(
    wave: WaveIndex, day: int, window: int, probes: list[Any]
) -> _Snapshot:
    """Capture the window's query-visible answers after ``day``."""
    lo = day - window + 1
    return battery(wave, [(value, lo, day) for value in probes], [(lo, day)])


def _diverges(got: _Snapshot, want: _Snapshot) -> str | None:
    """Return why ``got`` is not ``want`` by the twin oracle, or ``None``."""
    for answer, twin in zip(got, want):
        verdict = check_against_twin(answer, twin)
        if verdict.status != "ok":
            return verdict.detail
    return None


def _history(
    scheme_factory: Callable[[], WaveScheme],
    store: RecordStore,
    n_indexes: int,
    technique: UpdateTechnique,
) -> tuple[FaultInjector, WaveIndex, JournaledExecutor, WaveScheme]:
    """Start one run of a scheme's history: a wave on a fresh faulty disk
    (and that disk's injector), its journaled executor and its scheme,
    the start plan built."""
    injector = FaultInjector()
    wave = WaveIndex(FaultyDisk(injector=injector), IndexConfig(), n_indexes)
    executor = JournaledExecutor(wave, store, technique)
    scheme = scheme_factory()
    executor.execute(scheme.start_ops())
    return injector, wave, executor, scheme


def _twin_run(
    scheme_factory: Callable[[], WaveScheme],
    store: RecordStore,
    window: int,
    n_indexes: int,
    last_day: int,
    technique: UpdateTechnique,
    probes: list[Any],
) -> tuple[dict[int, _Snapshot], dict[int, int], dict[int, int]]:
    """Fault-free reference run: day snapshots, and per day the op
    boundaries its transition's stream yielded and the I/Os it made —
    the points a crash cell can name."""
    injector, wave, executor, scheme = _history(scheme_factory, store, n_indexes, technique)
    snapshots: dict[int, _Snapshot] = {}
    day_ops: dict[int, int] = {}
    day_ios: dict[int, int] = {}
    for day in range(window + 1, last_day + 1):
        before = injector.stats.ios
        boundaries: list[Boundary] = []
        steps = executor.journaled_steps(scheme.transition_ops(day), day=day)
        drive(steps, boundaries.append)
        day_ops[day] = len(boundaries)
        day_ios[day] = injector.stats.ios - before
        snapshots[day] = _snapshot(wave, day, window, probes)
    return snapshots, day_ops, day_ios


def _crash_run(
    scheme_factory: Callable[[], WaveScheme],
    store: RecordStore,
    window: int,
    n_indexes: int,
    last_day: int,
    technique: UpdateTechnique,
    probes: list[Any],
    crash_day: int,
    kind: str,
    at: int,
    twin: dict[int, _Snapshot],
) -> CrashCell:
    """Run one crash experiment and judge it against the twin."""
    injector, wave, executor, scheme = _history(scheme_factory, store, n_indexes, technique)
    scheme_name = scheme.name
    crashed = False
    try:
        for day in range(window + 1, last_day + 1):
            plan = scheme.transition_ops(day)
            if day == crash_day:
                steps = executor.journaled_steps(
                    plan, day=day, scheme_state=scheme.get_state()
                )
                try:
                    if kind == "op":
                        drive(steps, fault_at("op", at))
                    else:
                        injector.arm_crash(CrashPoint(after_ios=at))
                        drive(steps)
                except SimulatedCrash:
                    crashed = True
                    injector.disarm()
                    journal = executor.journal
                    # The "process" died: resurrect the planner from the
                    # journal alone, roll the transition forward on the
                    # surviving disk state, and continue with a fresh
                    # executor.
                    scheme = resume_scheme(journal)
                    recover_transition(journal, wave, store, technique)
                    executor = JournaledExecutor(wave, store, technique)
                else:
                    injector.disarm()
            else:
                executor.execute(plan)
            if day >= crash_day:
                check_wave_invariants(wave, scheme)
                why = _diverges(_snapshot(wave, day, window, probes), twin[day])
                if why is not None:
                    return CrashCell(
                        scheme_name, crash_day, kind, at, crashed, False,
                        f"day-{day} query results diverge from the "
                        f"fault-free twin: {why}",
                    )
    except InvariantViolation as exc:
        return CrashCell(
            scheme_name, crash_day, kind, at, crashed, False, str(exc)
        )
    return CrashCell(scheme_name, crash_day, kind, at, crashed, True)


def _scheme_factory(
    name: str, window: int, n_indexes: int
) -> Callable[[], WaveScheme]:
    scheme_cls = scheme_by_name(name)
    n = max(n_indexes, scheme_cls.min_indexes)
    return lambda: scheme_cls(window, n)


def _rebalance_cells(
    *,
    window: int,
    n_indexes: int,
    technique: UpdateTechnique,
    store: RecordStore,
    probes: list[Any],
) -> list[CrashCell]:
    """Crash cells for the cross-device move path (``copy_index_to``).

    The scheme matrix only enumerates scheme-transition op boundaries;
    rebalances (and the elastic engine's split/merge copies built on the
    same primitive) have their own boundaries: each constituent's
    stream-read off the source and packed write onto the target.  One
    :class:`~repro.storage.faults.FaultInjector` is shared by the source
    *and* target devices so ``after_ios`` counts the move's global I/O
    sequence; a fault-free dry run counts the I/Os, then one cell per
    I/O point crashes there and asserts the move's contract: the source
    replica still serves its pre-move snapshot bit-identically, the
    target carries zero orphan bytes, and an immediate retry completes
    and serves identically.
    """
    from ..cluster.rebalance import move_replica
    from ..cluster.shard import ShardReplica

    factory = _scheme_factory("WATA*", window, n_indexes)
    period = factory().maintenance_period
    last_day = window + period
    cells: list[CrashCell] = []

    def build():
        injector = FaultInjector()
        scheme = factory()
        replica = ShardReplica(
            0,
            0,
            DiskArray([FaultyDisk(injector=injector)]),
            store=store,
            technique=technique,
            scheme=scheme,
            config=IndexConfig(),
        )
        target = FaultyDisk(injector=injector)
        replica.executor.execute(scheme.start_ops())
        for day in range(window + 1, last_day + 1):
            replica.executor.execute(scheme.transition_ops(day))
        array = DiskArray([replica.device, target])
        return injector, target, replica.wave, scheme, replica, array

    # Fault-free dry run: count the move's I/Os — those are the cells.
    injector, target, wave, scheme, replica, array = build()
    pre = _snapshot(wave, last_day, window, probes)
    before = injector.stats.ios
    move_replica(replica, target, array)
    move_ios = injector.stats.ios - before
    why = _diverges(_snapshot(wave, last_day, window, probes), pre)
    if why is not None:
        return [
            CrashCell(
                "REBALANCE", last_day, "io", 0, False, False,
                f"fault-free move changed query results: {why}",
            )
        ]

    for m in range(move_ios):
        injector, target, wave, scheme, replica, array = build()
        pre = _snapshot(wave, last_day, window, probes)
        injector.arm_crash(CrashPoint(after_ios=m))
        crashed = False
        ok, detail = True, ""
        try:
            move_replica(replica, target, array)
        except SimulatedCrash:
            crashed = True
        injector.disarm()
        try:
            check_wave_invariants(wave, scheme)
            why = _diverges(_snapshot(wave, last_day, window, probes), pre)
            if why is not None:
                ok, detail = False, (
                    f"post-crash query results diverge from the pre-move "
                    f"snapshot: {why}"
                )
            elif crashed and target.live_bytes != 0:
                ok, detail = False, (
                    f"{target.live_bytes} orphan bytes left on the move "
                    f"target"
                )
            elif crashed:
                # The retry: a fresh move of the intact source must now
                # complete and serve bit-identically.
                move_replica(replica, target, array)
                why = _diverges(
                    _snapshot(wave, last_day, window, probes), pre
                )
                if why is not None:
                    ok, detail = False, (
                        f"post-retry query results diverge from the "
                        f"pre-move snapshot: {why}"
                    )
        except InvariantViolation as exc:
            ok, detail = False, str(exc)
        cells.append(
            CrashCell("REBALANCE", last_day, "io", m, crashed, ok, detail)
        )
    return cells


def run_crash_matrix(
    scheme_names: tuple[str, ...] | list[str] | None = None,
    *,
    window: int = 6,
    n_indexes: int = 3,
    cycles: int = 3,
    seed: int = 0,
    technique: UpdateTechnique = UpdateTechnique.SIMPLE_SHADOW,
    io_crash_samples: int = 0,
    include_rebalance: bool = True,
) -> CrashMatrixResult:
    """Run the crash matrix.

    For every scheme and every transition day of ``cycles`` maintenance
    cycles, a crash is injected at **every op boundary** of that day's plan
    (plus, optionally, ``io_crash_samples`` evenly spaced mid-op I/O points),
    recovered, and the rest of the run compared day-by-day against the
    fault-free twin.

    Args:
        scheme_names: Paper scheme names; defaults to all six.
        window: Window length ``W`` for every scheme.
        n_indexes: Constituent count ``n`` (raised per-scheme to its minimum).
        cycles: Steady-state maintenance cycles to cover per scheme.
        seed: Seeds the workload; same seed, same matrix.
        technique: Update technique for constituents.
        io_crash_samples: Mid-op crash points sampled per transition (0
            disables; these exercise the in-flight repair path).
        include_rebalance: Also run the ``REBALANCE`` pseudo-scheme —
            one crash cell per I/O boundary of a cross-device replica
            move (the primitive shard splits/merges copy with).

    Returns:
        A :class:`CrashMatrixResult`; ``result.ok`` is the verdict.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    if io_crash_samples < 0:
        raise ValueError(f"io_crash_samples must be >= 0, got {io_crash_samples}")
    names = tuple(scheme_names) if scheme_names else DEFAULT_SCHEMES
    result = CrashMatrixResult(window=window, n_indexes=n_indexes, seed=seed)
    max_last_day = window * (cycles + 1)
    store = _make_store(max_last_day, seed)
    probes = _probe_values(store, window)
    for name in names:
        factory = _scheme_factory(name, window, n_indexes)
        period = factory().maintenance_period
        last_day = min(window + cycles * period, max_last_day)
        twin, day_ops, day_ios = _twin_run(
            factory, store, window, n_indexes, last_day, technique, probes
        )
        for day in range(window + 1, last_day + 1):
            # Evenly spaced I/O points strictly inside the day, at most
            # one per I/O: every point 1 … ios-1 once samples reach it.
            ios = day_ios[day]
            step = max(1, ios // (io_crash_samples + 1))
            points = [("op", k) for k in range(day_ops[day])] + [
                ("io", m)
                for m in range(step, step * min(io_crash_samples, ios - 1) + 1, step)
            ]
            for kind, at in points:
                result.cells.append(
                    _crash_run(
                        factory, store, window, n_indexes, last_day,
                        technique, probes, day, kind, at, twin,
                    )
                )
    if include_rebalance:
        result.cells.extend(
            _rebalance_cells(
                window=window,
                n_indexes=n_indexes,
                technique=technique,
                store=store,
                probes=probes,
            )
        )
    return result

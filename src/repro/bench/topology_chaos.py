"""The topology-chaos harness: every reshard step, every fault.

The crash-consistency claim of :mod:`repro.cluster.elastic` is
step-universal: a fault at *any* boundary of the split/merge pipeline
either rolls the reshard forward (at/after the ``SWAPPED`` commit
point) or aborts it with the old topology fully intact and serving —
never a dark shard, never a fabricated answer, never a leaked extent.
This harness proves it by enumeration rather than by sampling:

* A fault-free **dry run** per reshard kind enumerates the pipeline's
  step boundaries: the day's boundary stream
  (:meth:`~repro.cluster.sim.ClusterSimulation.day_steps`) yields one of
  the change's kind before every step of the shared runner.
* One **cell** per (kind, step ordinal, fault kind) then replays the
  run with exactly one fault of :data:`~repro.core.boundary.FAULTS` at
  that boundary (:func:`~repro.core.boundary.fault_at`) — a
  :class:`~repro.errors.SimulatedCrash` thrown into the stream there, a
  device kill, or space exhaustion on the device the step touches.
* Every cell's daily answer battery (:func:`~repro.core.oracle.battery`)
  is judged by the twin oracle
  (:func:`~repro.core.oracle.check_against_twin`) against a
  **static-topology fault-free twin** (recorded once per seed): complete
  answers must hold the twin's entries, degraded answers a labelled
  subset.
* Aborted reshards must leave the shard count, routing version, and
  serving intact, with zero orphan bytes on every reachable target
  device — and the retained action must converge (the retry lands)
  before the run ends.

``repro topology-chaos`` writes ``BENCH_topology_chaos.json`` and
exits non-zero on any violated invariant; CI runs the crash-only quick
matrix per PR and the full multi-seed matrix nightly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, ClassVar
from zlib import crc32

from ..cluster import ClusterConfig, ClusterSimulation, ElasticConfig
from ..core.boundary import FAULTS, Boundary, drive, fault_at
from ..core.oracle import battery, check_against_twin
from ..storage.faults import FaultInjector, FaultyDisk, RetryPolicy
from .harness import (
    SCHEMA_VERSION,
    Bench,
    IntCorpus,
    QueryStream,
    Schema,
    Wave,
    build_world,
    check_fixed,
)


@dataclass(frozen=True)
class TopologyChaosConfig:
    """Parameters of the step-by-step topology fault matrix."""

    wave: Wave = Wave(window=7, n_indexes=3, scheme="REINDEX")
    corpus: IntCorpus = IntCorpus(domain=600, records_per_day=12, record_bytes=64)
    queries: QueryStream = QueryStream(probes_per_day=12, scans_per_day=0)
    cluster: ClusterConfig = ClusterConfig(
        n_shards=3, replication=1, partitioner="range", range_splits=(200, 400)
    )
    #: Extra probes compared against the twin after each day.
    check_probes: int = 8
    #: Reshard kinds whose pipelines the matrix walks.
    kinds: tuple[str, ...] = ("split", "merge")
    #: Fault kinds armed per step (subset of the boundary ``FAULTS``).
    faults: tuple[str, ...] = FAULTS
    #: The shard the split/merge targets (the hot middle shard).
    target_shard: int = 1
    #: Transition days after the reshard day (retry + steady checks).
    settle_days: int = 3
    seeds: tuple[int, ...] = (1,)
    #: Every cell sets ``cluster.elastic``; the stream is probe-only.
    settable: ClassVar[dict[str, tuple[str, ...]]] = {
        "queries": ("probes_per_day",),
        "cluster": ("n_shards", "replication", "range_splits"),
    }

    def __post_init__(self) -> None:
        check_fixed(self)
        if not self.kinds or any(
            k not in ("split", "merge") for k in self.kinds
        ):
            raise ValueError(f"bad reshard kinds {self.kinds!r}")
        if not self.faults or any(
            f not in FAULTS for f in self.faults
        ):
            raise ValueError(f"bad fault kinds {self.faults!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.settle_days < 2:
            raise ValueError(
                f"settle_days must be >= 2 (retry day plus a steady "
                f"check), got {self.settle_days}"
            )
        if not 0 <= self.target_shard < self.cluster.n_shards:
            raise ValueError(
                f"target_shard {self.target_shard} outside "
                f"[0, {self.cluster.n_shards})"
            )

    @property
    def reshard_day(self) -> int:
        """Return the day the reshard is requested for."""
        return self.wave.window + 2

    @property
    def last_day(self) -> int:
        """Return the final simulated day."""
        return self.reshard_day + self.settle_days


def quick_config(
    base: TopologyChaosConfig | None = None,
) -> TopologyChaosConfig:
    """Return the PR-sized matrix: crash faults only, one seed.

    Crash cells exercise every abort/roll-forward path of both
    pipelines; the kill and space columns (and extra seeds) ride in the
    nightly full matrix.
    """
    base = base or TopologyChaosConfig()
    return replace(base, faults=("crash",), seeds=base.seeds[:1])


class _SeedMatrix:
    """One seed's full fault matrix against its recorded twin."""

    def __init__(self, config: TopologyChaosConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        self.store = config.corpus.store(
            config.last_day, seed * 131071 + 17, first_id=1
        )
        self.retry = RetryPolicy()
        self._device_serial = 0
        #: day -> the twin's answer battery: each check probe's, then the
        #: window scan's.
        self.expected: dict[int, list[Any]] = {}
        self._record_twin()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _device(self, _index: int) -> FaultyDisk:
        serial = self._device_serial = self._device_serial + 1
        return FaultyDisk(
            injector=FaultInjector(self.seed * 1_000_003 + serial),
            retry_policy=self.retry,
        )

    def _make_sim(self, *, elastic: bool) -> ClusterSimulation:
        config = self.config
        self._device_serial = 0
        return build_world(
            config.wave,
            self.store,
            replace(
                config.cluster,
                elastic=ElasticConfig(autoscale=False) if elastic else None,
            ),
            queries=config.queries.workload(config.corpus.picker(), self.seed + 5),
            device_factory=self._device if elastic else None,
        )

    def _probe_specs(self, day: int) -> list[tuple[int, int, int]]:
        config = self.config
        lo, hi = day - config.wave.window + 1, day
        rng = random.Random(crc32(f"{self.seed}:check:{day}".encode()))
        return [
            (rng.randint(1, config.corpus.domain), lo, hi)
            for _ in range(config.check_probes)
        ]

    def _record_twin(self) -> None:
        """Run the static-topology fault-free twin once; record answers."""
        config = self.config
        twin = self._make_sim(elastic=False)
        twin.run_start()
        self._record_day(twin, config.wave.window)
        for day in range(config.wave.window + 1, config.last_day + 1):
            twin.run_transition(day)
            self._record_day(twin, day)

    def _battery(self, sim: ClusterSimulation, day: int) -> list[Any]:
        lo = day - self.config.wave.window + 1
        return battery(sim.coordinator, self._probe_specs(day), [(lo, day)])

    def _record_day(self, twin: ClusterSimulation, day: int) -> None:
        self.expected[day] = self._battery(twin, day)

    # ------------------------------------------------------------------
    # Per-day checks against the recorded twin
    # ------------------------------------------------------------------

    def _check_day(
        self,
        sim: ClusterSimulation,
        day: int,
        violations: list[str],
        label: str,
    ) -> None:
        whats = [f"probe {spec[0]!r}" for spec in self._probe_specs(day)]
        for what, got, want in zip(
            [*whats, "scan"], self._battery(sim, day), self.expected[day]
        ):
            verdict = check_against_twin(got, want)
            if verdict.wrong:
                violations.append(f"{label} day {day} {what}: {verdict.detail}")
        stats = sim.result.days[-1]
        if stats.shards_unavailable:
            violations.append(
                f"{label} day {day}: dark shards "
                f"{list(stats.shards_unavailable)}"
            )

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------

    def _request(self, sim: ClusterSimulation, kind: str) -> None:
        if kind == "split":
            sim.request_split(self.config.target_shard, reason="chaos")
        else:
            sim.request_merge(self.config.target_shard, reason="chaos")

    def enumerate_steps(self, kind: str) -> list[str]:
        """Dry-run the reshard fault-free; return its step names."""
        config = self.config
        sim = self._make_sim(elastic=True)
        names: list[str] = []

        def record(boundary: Boundary) -> None:
            if boundary.kind == kind:
                names.append(boundary.name)

        sim.run_start()
        for day in range(config.wave.window + 1, config.last_day + 1):
            if day == config.reshard_day:
                self._request(sim, kind)
            drive(sim.day_steps(day), record)
        if sim.result.total_reshards() != 1:
            raise RuntimeError(
                f"dry-run {kind} did not apply "
                f"(aborted={sim.result.total_reshards_aborted()})"
            )
        return names

    def run_cell(self, kind: str, ordinal: int, step_name: str, fault: str
                 ) -> dict[str, Any]:
        """Run one (kind, step, fault) cell; return its report entry."""
        config = self.config
        violations: list[str] = []
        label = f"{kind}@{ordinal}:{step_name}/{fault}"
        sim = self._make_sim(elastic=True)
        fired: list[str] = []
        sim.run_start()
        self._check_day(sim, config.wave.window, violations, label)
        outcome = "skipped"
        for day in range(config.wave.window + 1, config.last_day + 1):
            if day == config.reshard_day:
                self._request(sim, kind)
                drive(sim.day_steps(day), fault_at(kind, ordinal, fault, fired))
                for device in sim.array.devices:
                    if isinstance(device, FaultyDisk):
                        device.injector.space_limit_bytes = None
            else:
                sim.run_transition(day)
            if day == config.reshard_day:
                outcome = self._fault_day_outcome(
                    sim, kind, fault, bool(fired), violations, label
                )
            self._check_day(sim, day, violations, label)

        if fired:
            self._check_convergence(sim, kind, violations, label)
        return {
            "seed": self.seed,
            "kind": kind,
            "ordinal": ordinal,
            "step": step_name,
            "fault": fault,
            "fired": bool(fired),
            "outcome": outcome,
            "violations": violations,
        }

    def _fault_day_outcome(
        self, sim, kind, fault, fired, violations, label
    ) -> str:
        """Classify the fault day and check the abort invariants."""
        config = self.config
        stats = sim.result.days[-1]
        if not fired:
            # The step touches no device the fault kind can bite; the
            # reshard must simply have applied.
            if stats.reshards != 1:
                violations.append(
                    f"{label}: fault never fired yet reshard did not "
                    f"apply (aborted={stats.reshards_aborted})"
                )
            return "skipped"
        if stats.reshards == 1:
            # The fault hit at/after the commit point (or on a device
            # the pipeline retried past) and was rolled forward.
            return "rolled_forward" if fault == "crash" else "applied"
        if stats.reshards_aborted != 1:
            violations.append(
                f"{label}: fault fired but day shows neither an "
                f"applied nor an aborted reshard"
            )
            return "lost"
        if stats.n_shards != config.cluster.n_shards:
            violations.append(
                f"{label}: aborted reshard changed the shard count "
                f"to {stats.n_shards}"
            )
        if stats.topology_version != 0:
            violations.append(
                f"{label}: aborted reshard bumped the routing table "
                f"to v{stats.topology_version}"
            )
        journal = sim.elastic.journals[-1] if sim.elastic.journals else None
        if journal is None or journal.phase != "aborted":
            violations.append(
                f"{label}: aborted reshard left journal phase "
                f"{journal.phase if journal else 'missing'!r}"
            )
        self._check_orphans(sim, journal, violations, label)
        return "aborted"

    @staticmethod
    def _check_orphans(sim, journal, violations, label) -> None:
        """Every reachable target of an aborted reshard must be empty."""
        if journal is None:
            return
        for index in journal.target_devices:
            if index >= len(sim.array.devices):
                continue
            device = sim.array.devices[index]
            if device.failed:
                continue  # a killed target is unreachable, not leaked
            if device.live_bytes:
                violations.append(
                    f"{label}: aborted reshard leaked "
                    f"{device.live_bytes} bytes on target device "
                    f"{index}"
                )

    def _check_convergence(self, sim, kind, violations, label) -> None:
        """The reshard must have landed by the end of the run."""
        n_shards = self.config.cluster.n_shards
        expected = n_shards + 1 if kind == "split" else n_shards - 1
        if sim.result.total_reshards() != 1:
            violations.append(
                f"{label}: reshard never converged "
                f"(applied={sim.result.total_reshards()}, "
                f"aborted={sim.result.total_reshards_aborted()})"
            )
        elif sim.result.final_n_shards() != expected:
            violations.append(
                f"{label}: converged to {sim.result.final_n_shards()} "
                f"shards, expected {expected}"
            )


def run_topology_chaos(
    config: TopologyChaosConfig | None = None,
) -> dict[str, Any]:
    """Run the full matrix; return the BENCH_topology_chaos report."""
    config = config or TopologyChaosConfig()
    cells: list[dict[str, Any]] = []
    steps: dict[str, list[str]] = {}
    for seed in config.seeds:
        matrix = _SeedMatrix(config, seed)
        for kind in config.kinds:
            names = matrix.enumerate_steps(kind)
            steps.setdefault(kind, names)
            for ordinal, step_name in enumerate(names):
                for fault in config.faults:
                    cells.append(
                        matrix.run_cell(kind, ordinal, step_name, fault)
                    )

    violations = [v for cell in cells for v in cell["violations"]]
    outcomes = [cell["outcome"] for cell in cells]
    headline = {
        "cells": len(cells),
        "applied": outcomes.count("applied"),
        "aborted": outcomes.count("aborted"),
        "rolled_forward": outcomes.count("rolled_forward"),
        "skipped": outcomes.count("skipped"),
        "violations": len(violations),
        "pass": not violations,
    }
    report = {
        "bench": "topology_chaos",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "window": config.wave.window,
            "n_indexes": config.wave.n_indexes,
            "scheme": config.wave.scheme,
            "n_shards": config.cluster.n_shards,
            "replication": config.cluster.replication,
            "kinds": list(config.kinds),
            "faults": list(config.faults),
            "target_shard": config.target_shard,
            "reshard_day": config.reshard_day,
            "last_day": config.last_day,
            "seeds": list(config.seeds),
        },
        "steps": steps,
        "cells": cells,
        "headline": headline,
    }
    return BENCH.validate(report)


def _check(report: dict[str, Any]) -> None:
    headline = report["headline"]
    counted = (
        headline["applied"]
        + headline["aborted"]
        + headline["rolled_forward"]
        + headline["skipped"]
    )
    if counted != headline["cells"]:
        raise ValueError(
            f"outcome counts {counted} != cells {headline['cells']}"
        )


def render_summary(report: dict[str, Any]) -> str:
    """Return a human-readable matrix summary for the CLI."""
    config = report["config"]
    h = report["headline"]
    lines = [
        "Topology chaos: {scheme} k={n_shards} r={replication}, "
        "kinds={kinds}, faults={faults}, seeds={seeds}".format(**config),
    ]
    for kind, names in report["steps"].items():
        lines.append(f"  {kind}: {len(names)} steps ({', '.join(names)})")
    lines.append("")
    lines.append(
        f"  {h['cells']} cells: {h['aborted']} aborted cleanly, "
        f"{h['rolled_forward']} rolled forward, {h['applied']} applied "
        f"through the fault, {h['skipped']} skipped (no device at step)"
    )
    for cell in report["cells"]:
        for violation in cell["violations"]:
            lines.append(f"  VIOLATION: {violation}")
    lines.append(f"  invariants: {'PASS' if h['pass'] else 'FAIL'}")
    return "\n".join(lines)


BENCH = Bench(
    name="topology_chaos",
    config=TopologyChaosConfig,
    quick_config=quick_config,
    run=run_topology_chaos,
    render_summary=render_summary,
    schema=Schema(
        keys=("config", "steps", "cells", "headline"),
        rows="cells",
        row_keys=(
            "seed",
            "kind",
            "ordinal",
            "step",
            "fault",
            "outcome",
            "violations",
        ),
        headline=(
            "cells",
            "applied",
            "aborted",
            "rolled_forward",
            "skipped",
            "violations",
            "pass",
        ),
    ),
    claim=lambda report: report["headline"]["pass"],
    check=_check,
)

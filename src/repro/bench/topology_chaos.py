"""The topology-chaos harness: every reshard step, every fault.

The crash-consistency claim of :mod:`repro.cluster.elastic` is
step-universal: a fault at *any* boundary of the split/merge pipeline
either rolls the reshard forward (at/after the ``SWAPPED`` commit
point) or aborts it with the old topology fully intact and serving —
never a dark shard, never a fabricated answer, never a leaked extent.
This harness proves it by enumeration rather than by sampling:

* A fault-free **dry run** per reshard kind enumerates the pipeline's
  step boundaries via the shared runner's
  :attr:`~repro.core.staged.StagedChangeRunner.on_step` hook.
* One **cell** per (kind, step ordinal, fault kind) then replays the
  run with exactly one seeded fault armed at that boundary — a
  :class:`~repro.errors.SimulatedCrash`, a device kill, or space
  exhaustion on the device the step touches.
* Every cell's daily answers are compared against a **static-topology
  fault-free twin** (recorded once per seed): complete answers must be
  bit-identical, degraded answers a labeled subset.
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
from dataclasses import dataclass, field, replace
from typing import Any
from zlib import crc32

from ..cluster import ClusterConfig, ClusterSimulation, ElasticConfig
from ..core.schemes import scheme_by_name
from ..errors import SimulatedCrash
from ..sim.querygen import QueryWorkload, uniform_key_picker
from ..storage.faults import FaultInjector, FaultyDisk, RetryPolicy
from ..workloads.keys import build_int_store
from .harness import SCHEMA_VERSION, Bench, Schema

#: Fault kinds a cell can arm at its step boundary.
FAULT_KINDS = ("crash", "kill", "space")


@dataclass(frozen=True)
class TopologyChaosConfig:
    """Parameters of the step-by-step topology fault matrix."""

    window: int = 7
    n_indexes: int = 3
    scheme: str = "REINDEX"
    n_shards: int = 3
    replication: int = 1
    domain: int = 600
    range_splits: tuple[int, ...] = (200, 400)
    records_per_day: int = 12
    record_bytes: int = 64
    probes_per_day: int = 12
    #: Extra probes compared against the twin after each day.
    check_probes: int = 8
    #: Reshard kinds whose pipelines the matrix walks.
    kinds: tuple[str, ...] = ("split", "merge")
    #: Fault kinds armed per step (subset of :data:`FAULT_KINDS`).
    faults: tuple[str, ...] = FAULT_KINDS
    #: The shard the split/merge targets (the hot middle shard).
    target_shard: int = 1
    #: Transition days after the reshard day (retry + steady checks).
    settle_days: int = 3
    seeds: tuple[int, ...] = (1,)
    quick: bool = False

    def __post_init__(self) -> None:
        if not self.kinds or any(
            k not in ("split", "merge") for k in self.kinds
        ):
            raise ValueError(f"bad reshard kinds {self.kinds!r}")
        if not self.faults or any(
            f not in FAULT_KINDS for f in self.faults
        ):
            raise ValueError(f"bad fault kinds {self.faults!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.settle_days < 2:
            raise ValueError(
                f"settle_days must be >= 2 (retry day plus a steady "
                f"check), got {self.settle_days}"
            )
        if not 0 <= self.target_shard < self.n_shards:
            raise ValueError(
                f"target_shard {self.target_shard} outside "
                f"[0, {self.n_shards})"
            )
        if len(self.range_splits) != self.n_shards - 1:
            raise ValueError(
                f"range_splits needs {self.n_shards - 1} points, "
                f"got {len(self.range_splits)}"
            )
        scheme_by_name(self.scheme)

    @property
    def reshard_day(self) -> int:
        """Return the day the reshard is requested for."""
        return self.window + 2

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
    return replace(base, faults=("crash",), seeds=base.seeds[:1], quick=True)


@dataclass
class _Violations:
    """Accumulates labeled invariant violations."""

    items: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.items.append(message)


class _SeedMatrix:
    """One seed's full fault matrix against its recorded twin."""

    def __init__(self, config: TopologyChaosConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        self.store = build_int_store(
            seed * 131071 + 17,
            config.last_day,
            config.records_per_day,
            config.domain,
            config.record_bytes,
            first_id=1,
        )
        self.retry = RetryPolicy()
        self._device_serial = 0
        #: day -> (probe specs, probe answers, scan answer) of the twin.
        self.expected: dict[int, tuple[list, list, Any]] = {}
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

    def _workload(self) -> QueryWorkload:
        return QueryWorkload(
            probes_per_day=self.config.probes_per_day,
            value_picker=uniform_key_picker(self.config.domain),
            seed=self.seed + 5,
        )

    def _make_sim(self, *, elastic: bool) -> ClusterSimulation:
        config = self.config
        scheme_cls = scheme_by_name(config.scheme)
        self._device_serial = 0
        cluster = ClusterConfig(
            n_shards=config.n_shards,
            replication=config.replication,
            partitioner="range",
            range_splits=config.range_splits,
            elastic=ElasticConfig(autoscale=False) if elastic else None,
        )
        return ClusterSimulation(
            lambda: scheme_cls(config.window, config.n_indexes),
            self.store,
            queries=self._workload(),
            cluster=cluster,
            device_factory=self._device if elastic else None,
        )

    def _probe_specs(self, day: int) -> list[tuple[int, int, int]]:
        config = self.config
        lo, hi = day - config.window + 1, day
        rng = random.Random(crc32(f"{self.seed}:check:{day}".encode()))
        return [
            (rng.randint(1, config.domain), lo, hi)
            for _ in range(config.check_probes)
        ]

    def _record_twin(self) -> None:
        """Run the static-topology fault-free twin once; record answers."""
        config = self.config
        twin = self._make_sim(elastic=False)
        twin.run_start()
        self._record_day(twin, config.window)
        for day in range(config.window + 1, config.last_day + 1):
            twin.run_transition(day)
            self._record_day(twin, day)

    def _record_day(self, twin: ClusterSimulation, day: int) -> None:
        specs = self._probe_specs(day)
        answers = twin.coordinator.probe_many(specs).results
        for spec, answer in zip(specs, answers):
            if answer.missing_days:
                raise RuntimeError(
                    f"fault-free twin degraded on day {day} probe "
                    f"{spec[0]!r}: missing {sorted(answer.missing_days)}"
                )
        lo, hi = day - self.config.window + 1, day
        scan = twin.coordinator.scan(lo, hi)
        if scan.missing_days:
            raise RuntimeError(
                f"fault-free twin scan degraded on day {day}"
            )
        self.expected[day] = (specs, answers, scan)

    # ------------------------------------------------------------------
    # Per-day checks against the recorded twin
    # ------------------------------------------------------------------

    def _check_day(
        self,
        sim: ClusterSimulation,
        day: int,
        violations: _Violations,
        label: str,
    ) -> None:
        specs, want_probes, want_scan = self.expected[day]
        window_days = set(range(day - self.config.window + 1, day + 1))
        got_probes = sim.coordinator.probe_many(specs).results
        for spec, got, want in zip(specs, got_probes, want_probes):
            self._compare(
                f"{label} day {day} probe {spec[0]!r}",
                got,
                want,
                window_days,
                violations,
            )
        lo, hi = day - self.config.window + 1, day
        got_scan = sim.coordinator.scan(lo, hi)
        self._compare(
            f"{label} day {day} scan", got_scan, want_scan, window_days,
            violations,
        )
        stats = sim.result.days[-1]
        if stats.shards_unavailable:
            violations.fail(
                f"{label} day {day}: dark shards "
                f"{list(stats.shards_unavailable)}"
            )

    @staticmethod
    def _compare(
        label: str,
        got: Any,
        want: Any,
        window_days: set[int],
        violations: _Violations,
    ) -> None:
        if got.complete:
            # A scatter-gather scan concatenates per-shard hits in shard
            # order, so a different (but equivalent) topology may return
            # the same ids in a different order — compare as multisets.
            if sorted(got.record_ids) != sorted(want.record_ids):
                violations.fail(
                    f"{label}: complete answer differs from twin "
                    f"({len(got.record_ids)} vs {len(want.record_ids)} ids)"
                )
            return
        if not set(got.record_ids) <= set(want.record_ids):
            fabricated = sorted(
                set(got.record_ids) - set(want.record_ids)
            )[:5]
            violations.fail(
                f"{label}: degraded answer fabricated ids {fabricated}"
            )
        if not set(got.missing_days) <= window_days:
            violations.fail(
                f"{label}: missing days {sorted(got.missing_days)} "
                f"outside the queried window"
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
        assert sim.elastic is not None
        sim.elastic.on_step = lambda step: names.append(step.name)
        sim.run_start()
        for day in range(config.window + 1, config.last_day + 1):
            if day == config.reshard_day:
                self._request(sim, kind)
            sim.run_transition(day)
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
        violations = _Violations()
        label = f"{kind}@{ordinal}:{step_name}/{fault}"
        sim = self._make_sim(elastic=True)
        engine = sim.elastic
        assert engine is not None
        armed: list[FaultInjector] = []
        fired: list[str] = []

        def hook(step) -> None:
            if step.ordinal != ordinal:
                return
            if fault == "crash":
                fired.append(step.name)
                raise SimulatedCrash(f"topology-chaos {label}")
            if not step.devices:
                return  # no device to fault at this boundary
            if step.name == "plan":
                # The plan step's devices are the *donors*.  Killing the
                # only copy of the source data (r=1, no self-heal) is
                # unsurvivable by construction — that loss is the chaos
                # soak's territory, not a reshard-pipeline property.
                return
            injector = getattr(step.devices[0], "injector", None)
            if injector is None:
                return
            fired.append(step.name)
            if fault == "kill":
                injector.fail_device()
            else:  # space: the very next write to the device overflows
                injector.space_limit_bytes = (
                    step.devices[0].live_bytes + 1
                )
                armed.append(injector)

        sim.run_start()
        self._check_day(sim, config.window, violations, label)
        outcome = "skipped"
        for day in range(config.window + 1, config.last_day + 1):
            if day == config.reshard_day:
                self._request(sim, kind)
                engine.on_step = hook
            sim.run_transition(day)
            engine.on_step = None
            for injector in armed:
                injector.space_limit_bytes = None
            armed.clear()
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
            "violations": list(violations.items),
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
                violations.fail(
                    f"{label}: fault never fired yet reshard did not "
                    f"apply (aborted={stats.reshards_aborted})"
                )
            return "skipped"
        if stats.reshards == 1:
            # The fault hit at/after the commit point (or on a device
            # the pipeline retried past) and was rolled forward.
            return "rolled_forward" if fault == "crash" else "applied"
        if stats.reshards_aborted != 1:
            violations.fail(
                f"{label}: fault fired but day shows neither an "
                f"applied nor an aborted reshard"
            )
            return "lost"
        if stats.n_shards != config.n_shards:
            violations.fail(
                f"{label}: aborted reshard changed the shard count "
                f"to {stats.n_shards}"
            )
        if stats.topology_version != 0:
            violations.fail(
                f"{label}: aborted reshard bumped the routing table "
                f"to v{stats.topology_version}"
            )
        journal = sim.elastic.journals[-1] if sim.elastic.journals else None
        if journal is None or journal.phase != "aborted":
            violations.fail(
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
            injector = getattr(device, "injector", None)
            if injector is not None and injector.device_failed:
                continue  # a killed target is unreachable, not leaked
            if device.live_bytes:
                violations.fail(
                    f"{label}: aborted reshard leaked "
                    f"{device.live_bytes} bytes on target device "
                    f"{index}"
                )

    def _check_convergence(self, sim, kind, violations, label) -> None:
        """The reshard must have landed by the end of the run."""
        expected = (
            self.config.n_shards + 1
            if kind == "split"
            else self.config.n_shards - 1
        )
        if sim.result.total_reshards() != 1:
            violations.fail(
                f"{label}: reshard never converged "
                f"(applied={sim.result.total_reshards()}, "
                f"aborted={sim.result.total_reshards_aborted()})"
            )
        elif sim.result.final_n_shards() != expected:
            violations.fail(
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
            "window": config.window,
            "n_indexes": config.n_indexes,
            "scheme": config.scheme,
            "n_shards": config.n_shards,
            "replication": config.replication,
            "kinds": list(config.kinds),
            "faults": list(config.faults),
            "target_shard": config.target_shard,
            "reshard_day": config.reshard_day,
            "last_day": config.last_day,
            "seeds": list(config.seeds),
            "quick": config.quick,
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

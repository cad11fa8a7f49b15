"""The chaos soak harness: randomized fault schedules against the
self-healing cluster, checked against a fault-free twin.

The self-healing layer (:mod:`repro.cluster.selfheal`) claims the
cluster survives permanent replica loss, flaky devices, and crashes
mid-rebuild without ever fabricating an answer.  This harness makes the
claim falsifiable: for each seed it derives a deterministic fault
schedule — one device kill per shard at a random injection point
(mid-transition, mid-serving, or aimed at the rebuild itself), plus
transient read-error bursts and faulted spare devices — runs the
cluster through it, and after **every** day judges the cluster's
answer battery (:func:`~repro.core.oracle.battery`) with the twin oracle
(:func:`~repro.core.oracle.check_against_twin`) against a fault-free
twin fed the same store and query stream.  Every seed shares that store,
that stream and the cluster's shape, so the twin runs once per soak and
records its answers to every seed's checks, keyed ``(seed, day)``.  A
mid-serve kill acts at the day's ``"serve"`` boundary
(:meth:`~repro.cluster.sim.ClusterSimulation.day_steps`); kills follow
the schedule to a shard's primary device, not the device a boundary
names, so they are the soak's own action.

Three invariants are asserted daily:

* **answers_match** — every complete (non-degraded) answer holds the
  twin's entries over the twin's days (and the twin is complete).
* **degraded_subsets** — every degraded answer is a *labeled subset*:
  its entries are a subset of the twin's and its covered and
  ``missing_days`` are exactly the twin's days (no fabricated days, ever).
* **windows_bounded** — every under-replication window closes within
  ``1 + aborted-rebuild-attempts`` days (unavailability is bounded by
  the rebuild makespan, since a rebuild lands the day after the loss
  unless an attempt aborts), and the run ends at full replication with
  zero dark shards.

Two run-level invariants ride along: **breaker_visible** (transient
bursts leave ``cluster.heal.breaker_opens`` > 0 — the breaker periods
are observable, not theoretical) and **retries_bounded** (no operation
ever consumed more cluster-level retries than the
:class:`~repro.storage.faults.RetryPolicy` allows).

Results go to ``BENCH_chaos.json`` (``repro chaos-soak``); the headline
``recovery_makespan_seconds`` is gated by ``repro bench-check``.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar

from ..cluster import (
    BreakerConfig,
    ClusterConfig,
    ClusterSimulation,
    SelfHealConfig,
)
from ..core.boundary import Boundary, drive
from ..core.oracle import battery, check_against_twin
from ..core.records import RecordStore
from ..storage.faults import (
    CrashPoint,
    FaultInjector,
    FaultyDisk,
    RetryPolicy,
)
from .harness import (
    SCHEMA_VERSION,
    Bench,
    QueryStream,
    Schema,
    TextCorpus,
    Wave,
    build_world,
    check_fixed,
    override,
)

#: Fault injection points a kill can target.
KILL_POINTS = ("transition", "serving", "rebuild")


@dataclass(frozen=True)
class ChaosSoakConfig:
    """Parameters of one chaos soak.

    The defaults model the acceptance scenario: a four-shard,
    two-replica cluster, one permanent device kill per shard at a
    random injection point, two transient-burst days, and faulted
    spares — soaked across several seeds.
    """

    wave: Wave = Wave(window=8, n_indexes=4, scheme="REINDEX")
    corpus: TextCorpus = TextCorpus(docs_per_day=18, words_per_doc=10, zipf_s=1.0)
    queries: QueryStream = QueryStream(probes_per_day=30, scans_per_day=2)
    cluster: ClusterConfig = ClusterConfig(
        n_shards=4,
        replication=2,
        partitioner="hash",
        maintenance="staggered",
        max_concurrent_frac=0.5,
        arrival_stretch=2.0,
    )
    breaker: BreakerConfig = BreakerConfig(failure_threshold=3, cooldown_s=0.5)
    retry: RetryPolicy = RetryPolicy(max_attempts=3)
    transitions: int = 10
    #: Probe values compared against the twin after every day.
    check_probes: int = 6
    kills_per_shard: int = 1
    kill_points: tuple[str, ...] = KILL_POINTS
    transient_burst_days: int = 2
    transient_rate: float = 0.9
    seeds: tuple[int, ...] = (7, 8, 9)
    #: The soak builds the self-healing from ``breaker`` and ``retry``.
    settable: ClassVar[dict[str, tuple[str, ...]]] = {
        "cluster": (
            "n_shards",
            "replication",
            "partitioner",
            "maintenance",
            "max_concurrent_frac",
            "arrival_stretch",
        ),
        "breaker": ("failure_threshold", "cooldown_s"),
        "retry": ("max_attempts",),
    }

    def __post_init__(self) -> None:
        check_fixed(self)
        if self.transitions < 4:
            raise ValueError(
                "transitions must be >= 4 (kills need healing slack), "
                f"got {self.transitions}"
            )
        if self.kills_per_shard > 0 and self.cluster.replication < 2:
            raise ValueError(
                "kills with replication < 2 would darken shards; "
                "use replication >= 2"
            )
        unknown = set(self.kill_points) - set(KILL_POINTS)
        if unknown:
            raise ValueError(
                f"unknown kill points {sorted(unknown)}; "
                f"known: {', '.join(KILL_POINTS)}"
            )
        if not self.kill_points:
            raise ValueError("need at least one kill point")
        if not 0.0 <= self.transient_rate <= 1.0:
            raise ValueError(
                f"transient_rate must be in [0, 1], got {self.transient_rate}"
            )
        if self.check_probes < 1:
            raise ValueError(
                f"check_probes must be >= 1, got {self.check_probes}"
            )
        if not self.seeds:
            raise ValueError("need at least one seed")

    @property
    def last_day(self) -> int:
        """Return the final simulated day."""
        return self.wave.window + self.transitions


def quick_config(base: ChaosSoakConfig | None = None) -> ChaosSoakConfig:
    """Return a CI-sized variant of ``base`` (same faults, one seed).

    The *store* shape (``docs_per_day``, ``window``) is kept at the full
    run's size: the recovery-makespan headline is the span of one
    replica rebuild, which scales with index bytes — shrinking the store
    would push the quick value outside the bench-check gate's band
    around the committed full-run baseline.  Only the soak length, the
    query stream, and the seed count shrink.
    """
    base = base or ChaosSoakConfig()
    return override(
        base,
        transitions=6,
        probes_per_day=20,
        transient_burst_days=1,
        seeds=(base.seeds[0],),
    )


@dataclass(frozen=True)
class _Kill:
    """One scheduled permanent device loss."""

    shard_id: int
    day: int
    point: str
    #: Spare behaviours queued on the kill's shard when it fires: a
    #: "rebuild"-point kill prepends an aborting spare ("die"/"space")
    #: before the one that completes ("ok"/"crash" — a crash rolls
    #: forward).
    spare_modes: tuple[str, ...]
    #: I/Os into the day the "transition"-point failure fires after.
    io_offset: int


@dataclass(frozen=True)
class _Burst:
    """One scheduled transient-read-error burst (serving only)."""

    shard_id: int
    day: int


@dataclass
class _Invariants:
    """Per-run invariant verdicts plus the evidence when one fails."""

    answers_match: bool = True
    degraded_subsets: bool = True
    windows_bounded: bool = True
    breaker_visible: bool = True
    retries_bounded: bool = True
    violations: list[str] = field(default_factory=list)

    def fail(self, invariant: str, message: str) -> None:
        setattr(self, invariant, False)
        self.violations.append(f"{invariant}: {message}")

    def as_dict(self) -> dict[str, bool]:
        return {
            "answers_match": self.answers_match,
            "degraded_subsets": self.degraded_subsets,
            "windows_bounded": self.windows_bounded,
            "breaker_visible": self.breaker_visible,
            "retries_bounded": self.retries_bounded,
        }


def _simulation(
    config: ChaosSoakConfig,
    store: RecordStore,
    selfheal: SelfHealConfig | None = None,
    device_factory=None,
) -> ClusterSimulation:
    """The soak's cluster over ``store``; with no self-healing and plain
    devices, its fault-free twin."""
    return build_world(
        config.wave,
        store,
        replace(config.cluster, selfheal=selfheal),
        queries=config.queries.workload(
            config.corpus.picker(), config.seeds[0] + 1
        ),
        device_factory=device_factory,
    )


def _check_specs(
    config: ChaosSoakConfig, seed: int, day: int
) -> list[tuple[Any, int, int]]:
    """The probes ``seed`` checks after ``day``, over the day's window."""
    rng = random.Random((seed << 20) ^ (day * 2654435761 % (1 << 31)))
    picker = config.corpus.picker()
    lo = day - config.wave.window + 1
    return [(picker(rng), lo, day) for _ in range(config.check_probes)]


def _record_twin(
    config: ChaosSoakConfig, store: RecordStore
) -> dict[tuple[int, int], list[Any]]:
    """Run the fault-free twin once; return its answers to every seed's
    daily checks — the seed's probes, then the window scan — keyed
    ``(seed, day)``."""
    twin = _simulation(config, store)
    twin.run_start()
    answers: dict[tuple[int, int], list[Any]] = {}
    k = config.check_probes
    window = config.wave.window
    for day in range(window, config.last_day + 1):
        if day > window:
            twin.run_transition(day)
        specs = [
            spec
            for seed in config.seeds
            for spec in _check_specs(config, seed, day)
        ]
        *probes, scan = battery(twin.coordinator, specs, [(day - window + 1, day)])
        for i, seed in enumerate(config.seeds):
            answers[seed, day] = [*probes[i * k : (i + 1) * k], scan]
    return answers


class _ChaosRun:
    """One seed's soak: schedule, simulation, daily checks against the
    recorded twin."""

    def __init__(
        self,
        config: ChaosSoakConfig,
        seed: int,
        store: RecordStore,
        twin: dict[tuple[int, int], list[Any]],
    ) -> None:
        self.config = config
        self.seed = seed
        self.store = store
        self.twin = twin
        self.retry = config.retry
        self.invariants = _Invariants()
        #: shard_id -> spare behaviours its kills queued, oldest first.
        self._spare_queues: defaultdict[int, list[str]] = defaultdict(list)
        #: spare -> provisioning ordinal, until its rebuild arms it.
        self._unarmed: dict[FaultyDisk, int] = {}
        self._spare_modes_used: list[str] = []
        self._active_bursts: list[FaultInjector] = []
        #: shard_id -> day its under-replication window opened.
        self._under_since: dict[int, int] = {}
        #: shard_id -> aborted rebuild attempts while its window is open.
        self._aborts_in_window: dict[int, int] = {}
        self._schedule(random.Random(seed * 7919 + 101))

    # ------------------------------------------------------------------
    # Schedule derivation (pure function of the seed)
    # ------------------------------------------------------------------

    def _schedule(self, rng: random.Random) -> None:
        config = self.config
        first = config.wave.window + 1
        # Leave two days of slack so even a kill whose first rebuild
        # attempt aborts heals before the run ends.
        last_kill = config.last_day - 2
        kills: list[_Kill] = []
        for shard_id in range(config.cluster.n_shards):
            for _ in range(config.kills_per_shard):
                point = rng.choice(list(config.kill_points))
                modes: list[str] = []
                if point == "rebuild":
                    modes.append(rng.choice(("die", "space")))
                modes.append(rng.choice(("ok", "crash")))
                kills.append(
                    _Kill(
                        shard_id=shard_id,
                        day=rng.randint(first, last_kill),
                        point=point,
                        spare_modes=tuple(modes),
                        io_offset=rng.randint(3, 12),
                    )
                )
        self.kills = kills
        burst_days = rng.sample(
            range(first, config.last_day + 1),
            min(config.transient_burst_days, config.transitions),
        )
        self.bursts = [
            _Burst(shard_id=rng.randrange(config.cluster.n_shards), day=day)
            for day in sorted(burst_days)
        ]

    # ------------------------------------------------------------------
    # Device provisioning
    # ------------------------------------------------------------------

    def _base_device(self, index: int) -> FaultyDisk:
        return FaultyDisk(
            injector=FaultInjector(self.seed * 1_000_003 + index),
            retry_policy=self.retry,
        )

    def _spare_device(self, ordinal: int) -> FaultyDisk:
        """Provision one rebuild target, unarmed until its rebuild's
        first boundary says which shard it is for (:meth:`_arm_spare`)."""
        spare = FaultyDisk(
            injector=FaultInjector(self.seed * 99991 + ordinal),
            retry_policy=self.retry,
        )
        self._unarmed[spare] = ordinal
        return spare

    def _arm_spare(self, spare: FaultyDisk, shard_id: int, ordinal: int) -> None:
        """Arm ``spare`` with the next behaviour its shard's kills queued
        (two shards healing on one day each get their own kill's).

        A "die" spare fails within the copy, which writes the spare once
        a binding at least, so it aborts the rebuild it was scheduled to
        abort instead of dying later as a replica.
        """
        queue = self._spare_queues[shard_id]
        mode = queue.pop(0) if queue else "ok"
        self._spare_modes_used.append(mode)
        rng = random.Random(self.seed * 31 + ordinal)
        injector = spare.injector
        if mode == "die":
            injector.fail_device_after_ios = rng.randint(
                1, self.config.wave.n_indexes
            )
        elif mode == "space":
            injector.space_limit_bytes = 4096
        elif mode == "crash":
            injector.arm_crash(CrashPoint(after_ios=rng.randint(3, 12)))

    # ------------------------------------------------------------------
    # Fault firing
    # ------------------------------------------------------------------

    @staticmethod
    def _injector_of(sim: ClusterSimulation, shard_id: int) -> FaultInjector | None:
        replica = sim.shards[shard_id].primary
        if replica is None:
            return None
        return getattr(replica.device, "injector", None)

    def _arm_day_start(self, sim: ClusterSimulation, day: int) -> None:
        """Fire the kills that land before the day's maintenance."""
        for kill in self.kills:
            if kill.day != day or kill.point == "serving":
                continue
            injector = self._injector_of(sim, kill.shard_id)
            if injector is None:
                continue
            if kill.point == "transition":
                injector.fail_device_after_ios = (
                    injector.stats.ios + kill.io_offset
                )
            else:  # "rebuild": the loss is immediate; the rebuild is hit
                injector.fail_device()
            self._spare_queues[kill.shard_id].extend(kill.spare_modes)

    def _at_boundary(self, sim: ClusterSimulation, boundary: Boundary) -> None:
        """At a rebuild's first boundary, arm its spare; at the day's
        serving boundary, fire mid-serve kills and arm the day's
        transient bursts."""
        if boundary.kind == "rebuild":
            spare = boundary.devices[0]
            ordinal = self._unarmed.pop(spare, None)
            if ordinal is not None:
                self._arm_spare(spare, boundary.shard, ordinal)
            return
        if boundary.kind != "serve":
            return
        day = boundary.day
        for kill in self.kills:
            if kill.day != day or kill.point != "serving":
                continue
            injector = self._injector_of(sim, kill.shard_id)
            if injector is None:
                continue
            injector.fail_device()
            self._spare_queues[kill.shard_id].extend(kill.spare_modes)
        for burst in self.bursts:
            if burst.day != day:
                continue
            injector = self._injector_of(sim, burst.shard_id)
            if injector is None:
                continue
            injector.transient_read_rate = self.config.transient_rate
            self._active_bursts.append(injector)

    def _clear_bursts(self) -> None:
        for injector in self._active_bursts:
            injector.transient_read_rate = 0.0
        self._active_bursts.clear()

    # ------------------------------------------------------------------
    # Daily invariant checks
    # ------------------------------------------------------------------

    def _check_answers(self, sim: ClusterSimulation, day: int) -> None:
        """Judge a probe sample and a window scan by the twin oracle."""
        specs = _check_specs(self.config, self.seed, day)
        lo = day - self.config.wave.window + 1
        labels = [f"day {day} probe {spec[0]!r}" for spec in specs]
        for label, got, want in zip(
            [*labels, f"day {day} scan"],
            battery(sim.coordinator, specs, [(lo, day)]),
            self.twin[self.seed, day],
        ):
            verdict = check_against_twin(got, want)
            if verdict.wrong:
                # A broken complete answer (or twin) breaks the match; a
                # degraded one that is not a labelled subset, the subsets.
                invariant = (
                    "answers_match"
                    if verdict.rule in ("twin", "differs")
                    else "degraded_subsets"
                )
                self.invariants.fail(invariant, f"{label}: {verdict.detail}")

    def _track_replication(self, sim: ClusterSimulation, day: int) -> None:
        """Maintain under-replication windows and check their bounds."""
        config = self.config
        stats = sim.result.days[-1]
        if stats.shards_unavailable:
            self.invariants.fail(
                "windows_bounded",
                f"day {day}: dark shards {list(stats.shards_unavailable)}",
            )
        if stats.missing_days and not (
            stats.missing_days
            <= set(range(day - config.wave.window + 1, day + 1))
        ):
            self.invariants.fail(
                "degraded_subsets",
                f"day {day}: served missing days "
                f"{sorted(stats.missing_days)} outside the window",
            )
        for shard_id in self._under_since:
            # Attribute the day's aborted attempts to every open window
            # (a cluster-wide upper bound keeps the check simple).
            self._aborts_in_window[shard_id] += stats.rebuilds_failed
        for shard in sim.shards:
            alive = len(shard.replicas)
            shard_id = shard.shard_id
            if alive < config.cluster.replication:
                self._under_since.setdefault(shard_id, day)
                self._aborts_in_window.setdefault(shard_id, 0)
            elif shard_id in self._under_since:
                opened = self._under_since.pop(shard_id)
                aborts = self._aborts_in_window.pop(shard_id)
                length = day - opened
                if length > 1 + aborts:
                    self.invariants.fail(
                        "windows_bounded",
                        f"shard {shard_id} under-replicated for {length} "
                        f"days (opened day {opened}) with only {aborts} "
                        f"aborted rebuild attempts",
                    )

    # ------------------------------------------------------------------
    # The soak itself
    # ------------------------------------------------------------------

    def run(self) -> dict[str, Any]:
        config = self.config
        selfheal = SelfHealConfig(
            breaker=config.breaker,
            retry=self.retry,
            spare_factory=self._spare_device,
        )
        sim = _simulation(config, self.store, selfheal, self._base_device)
        window = config.wave.window
        sim.run_start()
        self._check_answers(sim, window)
        self._track_replication(sim, window)
        for day in range(window + 1, config.last_day + 1):
            self._arm_day_start(sim, day)
            drive(
                sim.day_steps(day),
                lambda boundary: self._at_boundary(sim, boundary),
            )
            self._clear_bursts()
            self._check_answers(sim, day)
            self._track_replication(sim, day)

        if self._under_since:
            self.invariants.fail(
                "windows_bounded",
                f"run ended with shards {sorted(self._under_since)} "
                f"still under-replicated",
            )
        counters = dict(sim.obs.counters())
        breaker_opens = int(counters.get("cluster.heal.breaker_opens", 0))
        if (
            self.bursts
            and config.transient_rate >= 0.5
            and breaker_opens == 0
        ):
            self.invariants.fail(
                "breaker_visible",
                f"{len(self.bursts)} transient burst(s) at rate "
                f"{config.transient_rate} opened no breaker",
            )
        monitor = sim._monitor
        assert monitor is not None
        if monitor.max_op_retries > self.retry.max_attempts - 1:
            self.invariants.fail(
                "retries_bounded",
                f"an op consumed {monitor.max_op_retries} retries; the "
                f"policy allows {self.retry.max_attempts - 1}",
            )

        result = sim.result
        return {
            "seed": self.seed,
            "kills": [
                {
                    "shard": k.shard_id,
                    "day": k.day,
                    "point": k.point,
                    "spare_modes": list(k.spare_modes),
                }
                for k in self.kills
            ],
            "bursts": [
                {"shard": b.shard_id, "day": b.day} for b in self.bursts
            ],
            "spare_modes_used": list(self._spare_modes_used),
            "queries": result.total_requests(),
            "queries_degraded": result.total_queries_degraded(),
            "failovers": result.total_failovers(),
            "rebuilds": result.total_rebuilds(),
            "rebuilds_failed": result.total_rebuilds_failed(),
            "rebuild_crash_recoveries": int(
                counters.get("cluster.heal.rebuild_crash_recoveries", 0)
            ),
            "replicas_retired": int(
                counters.get("cluster.heal.retired", 0)
            ),
            "breaker_opens": breaker_opens,
            "breaker_half_opens": int(
                counters.get("cluster.heal.breaker_half_opens", 0)
            ),
            "retries": int(counters.get("cluster.heal.retries", 0)),
            "max_op_retries": monitor.max_op_retries,
            "recovery_makespan_seconds": result.max_rebuild_seconds(),
            "invariants": self.invariants.as_dict(),
            "violations": list(self.invariants.violations),
        }


def run_chaos_soak(config: ChaosSoakConfig | None = None) -> dict[str, Any]:
    """Soak every seed's fault schedule; return the BENCH_chaos report.

    Each seed gets an independent cluster over the *same* store and
    query stream, so run entries are comparable — only the fault
    schedule differs — and one fault-free twin, run first, answers for
    all of them.
    """
    config = config or ChaosSoakConfig()
    store = config.corpus.store(config.last_day, config.seeds[0])
    twin = _record_twin(config, store)
    runs = [_ChaosRun(config, seed, store, twin).run() for seed in config.seeds]
    makespans = [run["recovery_makespan_seconds"] for run in runs]
    headline = {
        "seeds": len(runs),
        "all_invariants_pass": all(
            all(run["invariants"].values()) for run in runs
        ),
        "recovery_makespan_seconds": max(makespans, default=0.0),
        "recovery_makespan_mean": (
            sum(makespans) / len(makespans) if makespans else 0.0
        ),
        "total_rebuilds": sum(run["rebuilds"] for run in runs),
        "total_rebuilds_failed": sum(
            run["rebuilds_failed"] for run in runs
        ),
        "total_breaker_opens": sum(run["breaker_opens"] for run in runs),
        "zero_dark_shards": all(
            run["invariants"]["windows_bounded"] for run in runs
        ),
    }
    report = {
        "bench": "chaos",
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "window": config.wave.window,
            "n_indexes": config.wave.n_indexes,
            "transitions": config.transitions,
            "scheme": config.wave.scheme,
            "docs_per_day": config.corpus.docs_per_day,
            "words_per_doc": config.corpus.words_per_doc,
            "vocabulary": config.corpus.vocabulary,
            "probes_per_day": config.queries.probes_per_day,
            "scans_per_day": config.queries.scans_per_day,
            "zipf_s": config.corpus.zipf_s,
            "check_probes": config.check_probes,
        },
        "chaos": {
            "n_shards": config.cluster.n_shards,
            "replication": config.cluster.replication,
            "partitioner": config.cluster.partitioner,
            "maintenance": config.cluster.maintenance,
            "kills_per_shard": config.kills_per_shard,
            "kill_points": list(config.kill_points),
            "transient_burst_days": config.transient_burst_days,
            "transient_rate": config.transient_rate,
            "breaker_threshold": config.breaker.failure_threshold,
            "breaker_cooldown_s": config.breaker.cooldown_s,
            "retry_max_attempts": config.retry.max_attempts,
            "seeds": list(config.seeds),
        },
        "runs": runs,
        "headline": headline,
    }
    return BENCH.validate(report)


def _check(report: dict[str, Any]) -> None:
    for entry in report["runs"]:
        if entry["recovery_makespan_seconds"] < 0:
            raise ValueError(f"negative recovery makespan in {entry}")


def render_summary(report: dict[str, Any]) -> str:
    """Return a human-readable soak summary for the CLI."""
    w = report["workload"]
    c = report["chaos"]
    lines = [
        "Chaos soak: {scheme} W={window} n={n_indexes}, "
        "{transitions} transitions".format(**w),
        f"k={c['n_shards']} r={c['replication']}, "
        f"{c['kills_per_shard']} kill(s)/shard over "
        f"{'/'.join(c['kill_points'])}, "
        f"{c['transient_burst_days']} burst day(s) at rate "
        f"{c['transient_rate']}",
        "",
        f"{'seed':>5} {'kills':>6} {'rebuilds':>9} {'aborted':>8} "
        f"{'breaker':>8} {'retries':>8} {'recovery':>9} {'invariants':>11}",
    ]
    for run in report["runs"]:
        verdict = "PASS" if all(run["invariants"].values()) else "FAIL"
        lines.append(
            f"{run['seed']:>5} {len(run['kills']):>6} "
            f"{run['rebuilds']:>9} {run['rebuilds_failed']:>8} "
            f"{run['breaker_opens']:>8} {run['retries']:>8} "
            f"{run['recovery_makespan_seconds']:>9.3f} {verdict:>11}"
        )
    for run in report["runs"]:
        for violation in run["violations"]:
            lines.append(f"  seed {run['seed']} VIOLATION: {violation}")
    h = report["headline"]
    lines.append("")
    lines.append(
        f"  all invariants pass: {h['all_invariants_pass']}   "
        f"zero dark shards: {h['zero_dark_shards']}"
    )
    lines.append(
        f"  recovery makespan (max/mean): "
        f"{h['recovery_makespan_seconds']:.3f} / "
        f"{h['recovery_makespan_mean']:.3f} s over "
        f"{h['total_rebuilds']} rebuild(s), "
        f"{h['total_rebuilds_failed']} aborted"
    )
    return "\n".join(lines)


BENCH = Bench(
    name="chaos",
    config=ChaosSoakConfig,
    quick_config=quick_config,
    run=run_chaos_soak,
    render_summary=render_summary,
    schema=Schema(
        keys=("workload", "chaos", "runs", "headline"),
        rows="runs",
        row_keys=(
            "seed",
            "kills",
            "bursts",
            "rebuilds",
            "rebuilds_failed",
            "rebuild_crash_recoveries",
            "breaker_opens",
            "retries",
            "max_op_retries",
            "recovery_makespan_seconds",
            "invariants",
            "violations",
        ),
        headline=(
            "all_invariants_pass",
            "recovery_makespan_seconds",
            "total_rebuilds",
            "zero_dark_shards",
        ),
    ),
    claim=lambda report: report["headline"]["all_invariants_pass"],
    check=_check,
)

"""The chaos soak harness: randomized fault schedules against the
self-healing cluster, checked against a fault-free twin.

The self-healing layer (:mod:`repro.cluster.selfheal`) claims the
cluster survives permanent replica loss, flaky devices, and crashes
mid-rebuild without ever fabricating an answer.  This harness makes the
claim falsifiable: for each seed it derives a deterministic fault
schedule — one device kill per shard at a random injection point
(mid-transition, mid-serving, or aimed at the rebuild itself), plus
transient read-error bursts and faulted spare devices — runs the
cluster through it, and after **every** day compares the cluster's
answers against a fault-free twin fed the same store and query stream.

Three invariants are asserted daily:

* **answers_match** — every complete (non-degraded) answer is
  bit-identical to the twin's.
* **degraded_subsets** — every degraded answer is a *labeled subset*:
  its record ids are a subset of the twin's and its ``missing_days``
  stay inside the queried window (no fabricated days, ever).
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
from dataclasses import dataclass, field, replace
from typing import Any

from ..cluster import (
    BreakerConfig,
    ClusterConfig,
    ClusterSimulation,
    SelfHealConfig,
)
from ..core.records import RecordStore
from ..core.schemes import scheme_by_name
from ..sim.querygen import zipf_value_picker
from ..storage.faults import (
    CrashPoint,
    FaultInjector,
    FaultyDisk,
    RetryPolicy,
)
from .harness import SCHEMA_VERSION, Bench, Schema, text_corpus, zipf_queries

#: Fault injection points a kill can target.
KILL_POINTS = ("transition", "serving", "rebuild")

#: Behaviours a provisioned spare device can be armed with.
_SPARE_MODES = ("ok", "crash", "die", "space")


@dataclass(frozen=True)
class ChaosSoakConfig:
    """Parameters of one chaos soak.

    The defaults model the acceptance scenario: a four-shard,
    two-replica cluster, one permanent device kill per shard at a
    random injection point, two transient-burst days, and faulted
    spares — soaked across several seeds.
    """

    window: int = 8
    n_indexes: int = 4
    transitions: int = 10
    scheme: str = "REINDEX"
    n_shards: int = 4
    replication: int = 2
    partitioner: str = "hash"
    maintenance: str = "staggered"
    max_concurrent_frac: float = 0.5
    arrival_stretch: float = 2.0
    docs_per_day: int = 18
    words_per_doc: int = 10
    probes_per_day: int = 30
    scans_per_day: int = 2
    zipf_s: float = 1.0
    #: Probe values compared against the twin after every day.
    check_probes: int = 6
    kills_per_shard: int = 1
    kill_points: tuple[str, ...] = KILL_POINTS
    transient_burst_days: int = 2
    transient_rate: float = 0.9
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 0.5
    retry_max_attempts: int = 3
    seeds: tuple[int, ...] = (7, 8, 9)
    quick: bool = False

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.transitions < 4:
            raise ValueError(
                "transitions must be >= 4 (kills need healing slack), "
                f"got {self.transitions}"
            )
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.kills_per_shard > 0 and self.replication < 2:
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
        scheme_by_name(self.scheme)  # raises KeyError on unknowns

    @property
    def last_day(self) -> int:
        """Return the final simulated day."""
        return self.window + self.transitions


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
    return replace(
        base,
        transitions=6,
        probes_per_day=20,
        transient_burst_days=1,
        seeds=(base.seeds[0],),
        quick=True,
    )


@dataclass(frozen=True)
class _Kill:
    """One scheduled permanent device loss."""

    shard_id: int
    day: int
    point: str
    #: Spare behaviours queued when the kill fires: a "rebuild"-point
    #: kill prepends an aborting spare ("die"/"space") before the one
    #: that completes ("ok"/"crash" — a crash rolls forward).
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

    def all_pass(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, bool]:
        return {
            "answers_match": self.answers_match,
            "degraded_subsets": self.degraded_subsets,
            "windows_bounded": self.windows_bounded,
            "breaker_visible": self.breaker_visible,
            "retries_bounded": self.retries_bounded,
        }


class _ChaosRun:
    """One seed's soak: schedule, paired simulations, daily checks."""

    def __init__(
        self,
        config: ChaosSoakConfig,
        seed: int,
        store: RecordStore,
        vocabulary: int,
    ) -> None:
        self.config = config
        self.seed = seed
        self.store = store
        self.vocabulary = vocabulary
        self.retry = RetryPolicy(max_attempts=config.retry_max_attempts)
        self.invariants = _Invariants()
        self._spare_queue: list[str] = []
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
        first = config.window + 1
        # Leave two days of slack so even a kill whose first rebuild
        # attempt aborts heals before the run ends.
        last_kill = config.last_day - 2
        kills: list[_Kill] = []
        for shard_id in range(config.n_shards):
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
            _Burst(shard_id=rng.randrange(config.n_shards), day=day)
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
        """Provision one rebuild target, armed per the schedule."""
        mode = self._spare_queue.pop(0) if self._spare_queue else "ok"
        self._spare_modes_used.append(mode)
        rng = random.Random(self.seed * 31 + ordinal)
        kwargs: dict[str, Any] = {}
        if mode == "die":
            kwargs["fail_device_after_ios"] = rng.randint(4, 16)
        elif mode == "space":
            kwargs["space_limit_bytes"] = 4096
        elif mode == "crash":
            kwargs["crash"] = CrashPoint(after_ios=rng.randint(3, 12))
        return FaultyDisk(
            injector=FaultInjector(self.seed * 99991 + ordinal, **kwargs),
            retry_policy=self.retry,
        )

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
            self._spare_queue.extend(kill.spare_modes)

    def _on_serving_start(self, sim: ClusterSimulation, day: int) -> None:
        """Fire mid-serve kills and arm the day's transient bursts."""
        for kill in self.kills:
            if kill.day != day or kill.point != "serving":
                continue
            injector = self._injector_of(sim, kill.shard_id)
            if injector is None:
                continue
            injector.fail_device()
            self._spare_queue.extend(kill.spare_modes)
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

    def _check_answers(
        self, sim: ClusterSimulation, twin: ClusterSimulation, day: int
    ) -> None:
        """Compare a probe sample and a window scan against the twin."""
        config = self.config
        lo, hi = day - config.window + 1, day
        window_days = set(range(lo, hi + 1))
        rng = random.Random((self.seed << 20) ^ (day * 2654435761 % (1 << 31)))
        picker = zipf_value_picker(self.vocabulary, config.zipf_s)
        specs = [
            (picker(rng), lo, hi) for _ in range(config.check_probes)
        ]
        mine = sim.coordinator.probe_many(specs).results
        theirs = twin.coordinator.probe_many(specs).results
        for spec, got, want in zip(specs, mine, theirs):
            self._compare(
                f"day {day} probe {spec[0]!r}", got, want, window_days
            )
        got_scan = sim.coordinator.scan(lo, hi)
        want_scan = twin.coordinator.scan(lo, hi)
        self._compare(f"day {day} scan", got_scan, want_scan, window_days)

    def _compare(
        self, label: str, got: Any, want: Any, window_days: set[int]
    ) -> None:
        if want.missing_days:
            self.invariants.fail(
                "answers_match",
                f"{label}: fault-free twin degraded "
                f"(missing {sorted(want.missing_days)})",
            )
            return
        if got.complete:
            if got.record_ids != want.record_ids:
                self.invariants.fail(
                    "answers_match",
                    f"{label}: complete answer differs from twin "
                    f"({len(got.record_ids)} vs {len(want.record_ids)} ids)",
                )
            return
        if not set(got.record_ids) <= set(want.record_ids):
            fabricated = set(got.record_ids) - set(want.record_ids)
            self.invariants.fail(
                "degraded_subsets",
                f"{label}: degraded answer fabricated record ids "
                f"{sorted(fabricated)[:5]}",
            )
        if not set(got.missing_days) <= window_days:
            self.invariants.fail(
                "degraded_subsets",
                f"{label}: missing days {sorted(got.missing_days)} "
                f"outside the queried window",
            )

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
            <= set(range(day - config.window + 1, day + 1))
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
            alive = len(shard.alive_replicas())
            shard_id = shard.shard_id
            if alive < config.replication:
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
        scheme_cls = scheme_by_name(config.scheme)
        cluster_kwargs: dict[str, Any] = dict(
            n_shards=config.n_shards,
            replication=config.replication,
            partitioner=config.partitioner,
            maintenance=config.maintenance,
            max_concurrent_frac=config.max_concurrent_frac,
            arrival_stretch=config.arrival_stretch,
        )
        selfheal = SelfHealConfig(
            breaker=BreakerConfig(
                failure_threshold=config.breaker_threshold,
                cooldown_s=config.breaker_cooldown_s,
            ),
            retry=self.retry,
            spare_factory=self._spare_device,
        )
        sim = ClusterSimulation(
            lambda: scheme_cls(config.window, config.n_indexes),
            self.store,
            queries=zipf_queries(
                config, self.vocabulary, config.seeds[0] + 1
            ),
            cluster=ClusterConfig(selfheal=selfheal, **cluster_kwargs),
            device_factory=self._base_device,
        )
        twin = ClusterSimulation(
            lambda: scheme_cls(config.window, config.n_indexes),
            self.store,
            queries=zipf_queries(
                config, self.vocabulary, config.seeds[0] + 1
            ),
            cluster=ClusterConfig(**cluster_kwargs),
        )
        sim.on_serving_start = self._on_serving_start

        sim.run_start()
        twin.run_start()
        self._check_answers(sim, twin, config.window)
        self._track_replication(sim, config.window)
        for day in range(config.window + 1, config.last_day + 1):
            self._arm_day_start(sim, day)
            sim.run_transition(day)
            self._clear_bursts()
            twin.run_transition(day)
            self._check_answers(sim, twin, day)
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

    Each seed gets an independent cluster/twin pair over the *same*
    store and query stream, so run entries are comparable: only the
    fault schedule differs.
    """
    config = config or ChaosSoakConfig()
    store, vocabulary = text_corpus(config, config.last_day, config.seeds[0])
    runs = [
        _ChaosRun(config, seed, store, vocabulary).run()
        for seed in config.seeds
    ]
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
            "window": config.window,
            "n_indexes": config.n_indexes,
            "transitions": config.transitions,
            "scheme": config.scheme,
            "docs_per_day": config.docs_per_day,
            "words_per_doc": config.words_per_doc,
            "vocabulary": vocabulary,
            "probes_per_day": config.probes_per_day,
            "scans_per_day": config.scans_per_day,
            "zipf_s": config.zipf_s,
            "check_probes": config.check_probes,
            "quick": config.quick,
        },
        "chaos": {
            "n_shards": config.n_shards,
            "replication": config.replication,
            "partitioner": config.partitioner,
            "maintenance": config.maintenance,
            "kills_per_shard": config.kills_per_shard,
            "kill_points": list(config.kill_points),
            "transient_burst_days": config.transient_burst_days,
            "transient_rate": config.transient_rate,
            "breaker_threshold": config.breaker_threshold,
            "breaker_cooldown_s": config.breaker_cooldown_s,
            "retry_max_attempts": config.retry_max_attempts,
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

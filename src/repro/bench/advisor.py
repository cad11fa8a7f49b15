"""The advisor benchmark: online tuning under workload drift.

The tuning advisor (:mod:`repro.advisor`) makes two measurable claims:

* **Drift.**  Over a workload that shifts regimes — probe-heavy →
  scan-heavy (newest-day) → mixed, with a volume ramp — a cluster the
  advisor retunes online accumulates less total cost (maintenance +
  serving seconds) than the *same* cluster frozen in **any** single
  (scheme, n) design.  Every static candidate from the advisor's own
  grid is actually run; the headline ``advisor_drift_advantage`` is
  ``best_static_cost / advisor_cost`` (> 1 means the advisor beats even
  the best static design chosen in hindsight).
* **Divergence.**  With replication, per-replica designs beat uniform
  ones: the probe twin keeps a fat-constituent layout (one seek per
  probe) while the scan twin keeps a thin-newest layout (small
  newest-day scans), and the cost router sends each query to the twin
  tuned for it.  Measured as steady-state qps against the serving
  bottleneck, divergent vs uniform on the same mixed stream.

Both sub-experiments also assert **bit-identical answers**: the twin
oracle (:func:`~repro.core.oracle.check_against_twin`) must pass every
answer of a probe/scan battery against the advisor-on cluster as the
advisor-off twin's, complete and equal — retuning changes the price of
an answer, never the answer.

``repro bench-advisor`` writes ``BENCH_advisor.json``;
``repro bench-check`` gates ``advisor_drift_advantage``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, ClassVar

from ..advisor import AdvisorConfig
from ..cluster import ClusterConfig, ClusterSimulation
from ..core.oracle import battery, check_against_twin
from ..core.records import RecordStore
from ..core.schemes import scheme_by_name
from ..sim.querygen import DriftingWorkload, QueryWorkload, WorkloadPhase
from .harness import (
    SCHEMA_VERSION,
    Bench,
    IntCorpus,
    Schema,
    Wave,
    build_world,
    check_fixed,
    claim_passes,
)


@dataclass(frozen=True)
class AdvisorBenchConfig:
    """Parameters of the drift benchmark.

    The defaults model the acceptance scenario: three two-week regimes
    whose per-phase optima sit at opposite ends of the design grid
    (probe-heavy wants one fat constituent; newest-day scans want a thin
    newest one), so no single static design is good everywhere.
    """

    #: The initial design every run (advisor and static twin) starts in.
    wave: Wave = Wave(window=6, n_indexes=3, scheme="DEL")
    corpus: IntCorpus = IntCorpus(domain=64, records_per_day=24, record_bytes=64)
    #: The advisor every advisor-on run tunes with.
    advisor: AdvisorConfig = AdvisorConfig(
        observe_days=2, cooldown_days=2, amortization_days=5
    )
    #: Days per drift phase; three phases follow the initial build.
    phase_days: int = 14
    #: Phase 1 (probe-heavy): seek-bound point lookups.
    probe_phase_probes: int = 120
    #: Phase 2 (scan-heavy): newest-day scans, a trickle of probes.
    scan_phase_scans: int = 150
    scan_phase_probes: int = 2
    #: Phase 3 (mixed): both, plus the accumulated volume ramp.
    mixed_phase_probes: int = 40
    mixed_phase_scans: int = 12
    #: Fractional request-volume growth per day since the first phase.
    volume_ramp: float = 0.02
    #: The static grid raced against the advisor — the advisor's own
    #: candidate set (schemes x n in {1, 2, W/2, W}, legal n only), so
    #: "beats every static" means beating its whole search space.
    static_designs: tuple[tuple[str, int], ...] = (
        ("DEL", 1),
        ("DEL", 2),
        ("DEL", 3),
        ("DEL", 6),
        ("REINDEX+", 2),
        ("REINDEX+", 3),
        ("REINDEX+", 6),
        ("WATA*", 2),
        ("WATA*", 3),
        ("WATA*", 6),
    )
    #: Divergent sub-experiment: a byte-heavy store (newest-day scan cost
    #: must dominate its seek for layout to matter) and a steady mixed
    #: stream served by two replicas.
    divergent_records_per_day: int = 2000
    divergent_probes: int = 80
    divergent_scans: int = 120
    divergent_transitions: int = 14
    #: Steady-state qps is averaged over this many final days.
    tail_days: int = 5
    seed: int = 7
    #: The divergent pair sets ``advisor.divergent``.
    settable: ClassVar[dict[str, tuple[str, ...]]] = {
        "advisor": ("observe_days", "cooldown_days", "amortization_days"),
    }

    def __post_init__(self) -> None:
        check_fixed(self)
        advisor = self.advisor
        if self.phase_days < advisor.observe_days + advisor.cooldown_days + 1:
            raise ValueError(
                f"phase_days={self.phase_days} leaves no room to observe "
                f"and retune within a phase"
            )
        if self.tail_days < 1:
            raise ValueError(f"tail_days must be >= 1, got {self.tail_days}")
        for name, n in self.static_designs:
            cls = scheme_by_name(name)  # raises KeyError on unknowns
            if not cls.min_indexes <= n <= self.wave.window:
                raise ValueError(f"static design {name}/{n} is illegal")

    @property
    def last_day(self) -> int:
        """Return the drift run's final simulated day."""
        return self.wave.window + 3 * self.phase_days

    @property
    def phase_starts(self) -> tuple[int, int, int]:
        """Return the first day of each drift phase."""
        first = self.wave.window + 1
        return (first, first + self.phase_days, first + 2 * self.phase_days)


def quick_config(base: AdvisorBenchConfig | None = None) -> AdvisorBenchConfig:
    """Return the CI-sized variant of ``base``.

    The full run already finishes in seconds, and the gated headline is
    a ratio over the whole drift — shrinking any phase would move it —
    so quick mode keeps the exact same runs.
    """
    return base or AdvisorBenchConfig()


def _drift_workload(config: AdvisorBenchConfig) -> DriftingWorkload:
    """Return the three-phase drifting stream every drift run shares."""
    picker = config.corpus.picker()
    seed = config.seed + 1
    p1, p2, p3 = config.phase_starts
    return DriftingWorkload(
        phases=(
            WorkloadPhase(
                p1,
                QueryWorkload(
                    probes_per_day=config.probe_phase_probes,
                    value_picker=picker,
                    seed=seed,
                ),
            ),
            WorkloadPhase(
                p2,
                QueryWorkload(
                    probes_per_day=config.scan_phase_probes,
                    scans_per_day=config.scan_phase_scans,
                    value_picker=picker,
                    scan_newest_only=True,
                    seed=seed,
                ),
            ),
            WorkloadPhase(
                p3,
                QueryWorkload(
                    probes_per_day=config.mixed_phase_probes,
                    scans_per_day=config.mixed_phase_scans,
                    value_picker=picker,
                    seed=seed,
                ),
            ),
        ),
        volume_ramp=config.volume_ramp,
    )


def _run_drift(
    config: AdvisorBenchConfig,
    store: RecordStore,
    queries: DriftingWorkload,
    *,
    wave: Wave,
    advisor: AdvisorConfig | None,
) -> ClusterSimulation:
    """One single-shard drift run (advisor-on or a frozen static)."""
    sim = build_world(
        wave,
        store,
        ClusterConfig(
            n_shards=1, replication=1, maintenance="lockstep", advisor=advisor
        ),
        queries=queries,
    )
    sim.run(config.last_day)
    return sim


def _cumulative_cost(sim: ClusterSimulation) -> float:
    """Return the run's total cost: maintenance + serving seconds.

    Retune spans land inside the day's maintenance makespan (the retuned
    replica's timeline covers its build + catch-up), so they are charged
    here automatically — the advisor pays for its own switches.
    """
    return sum(
        stats.maintenance_makespan_seconds + sum(stats.query_seconds)
        for stats in sim.result.days
    )


def _tail_qps(sim: ClusterSimulation, tail_days: int) -> float:
    """Return mean steady-state qps over the run's final days.

    Throughput against the serving bottleneck (the busiest shard's
    serving seconds), same convention as the elastic bench.
    """
    tail = sim.result.days[-tail_days:]
    rates = []
    for stats in tail:
        bottleneck = max(stats.query_seconds, default=0.0)
        rates.append(stats.queries / bottleneck if bottleneck > 0 else 0.0)
    return sum(rates) / len(rates) if rates else 0.0


def _timeline(sim: ClusterSimulation) -> list[dict[str, Any]]:
    """Return the advisor run's per-day activity timeline."""
    out = []
    for stats in sim.result.days:
        entry: dict[str, Any] = {
            "day": stats.day,
            "queries": stats.queries,
            "makespan_seconds": stats.makespan_seconds,
            "cost_seconds": stats.maintenance_makespan_seconds
            + sum(stats.query_seconds),
            "retunes": stats.retunes,
            "retunes_aborted": stats.retunes_aborted,
            "retune_seconds": stats.retune_seconds,
        }
        if stats.designs:
            entry["designs"] = dict(stats.designs)
        out.append(entry)
    return out


def _answers_match(
    sim: ClusterSimulation,
    twin: ClusterSimulation,
    config: AdvisorBenchConfig,
    last_day: int,
) -> bool:
    """Return whether ``sim`` answers a fixed probe/scan battery over
    ``[last - W + 1, last]`` exactly as ``twin`` does, by the twin oracle.

    Designs lay the same entries out differently; the oracle compares
    what an answer carries — its entries and its days — not their order.
    """
    window, domain = config.wave.window, config.corpus.domain
    lo = last_day - window + 1
    probes = [(value, lo, last_day) for value in range(1, domain + 1, 7)]
    probes += [(1, last_day, last_day), (domain, lo, lo + window // 2)]
    scans = [(lo, last_day), (last_day, last_day), (lo + 1, last_day - 1)]
    return all(
        check_against_twin(got, want).status == "ok"
        for got, want in zip(
            battery(sim.coordinator, probes, scans),
            battery(twin.coordinator, probes, scans),
        )
    )


def _run_divergent_pair(
    config: AdvisorBenchConfig,
) -> tuple[dict[str, Any], bool]:
    """Race divergent vs uniform replica designs on one mixed stream."""
    last_day = config.wave.window + config.divergent_transitions
    corpus = replace(config.corpus, records_per_day=config.divergent_records_per_day)
    store = corpus.store(last_day, config.seed)
    workload = QueryWorkload(
        probes_per_day=config.divergent_probes,
        scans_per_day=config.divergent_scans,
        scan_newest_only=True,
        value_picker=corpus.picker(),
        seed=config.seed + 2,
    )

    def run(divergent: bool) -> ClusterSimulation:
        sim = build_world(
            config.wave,
            store,
            ClusterConfig(
                n_shards=1,
                replication=2,
                maintenance="lockstep",
                advisor=replace(config.advisor, divergent=divergent),
            ),
            queries=workload,
        )
        sim.run(last_day)
        return sim

    uniform = run(False)
    divergent = run(True)
    # Divergent replicas must stay interchangeable: same battery, same
    # canonical answers whichever twin the router favours.
    identical = _answers_match(divergent, uniform, config, last_day)

    report = {
        "last_day": last_day,
        "records_per_day": config.divergent_records_per_day,
        "probes_per_day": config.divergent_probes,
        "scans_per_day": config.divergent_scans,
        "uniform_qps": _tail_qps(uniform, config.tail_days),
        "divergent_qps": _tail_qps(divergent, config.tail_days),
        "uniform_designs": uniform.result.days[-1].designs,
        "divergent_designs": divergent.result.days[-1].designs,
        "uniform_retunes": sum(d.retunes for d in uniform.result.days),
        "divergent_retunes": sum(d.retunes for d in divergent.result.days),
    }
    return report, identical


def run_advisor_bench(
    config: AdvisorBenchConfig | None = None,
) -> dict[str, Any]:
    """Run the drift race and the divergent pair; return the report."""
    config = config or AdvisorBenchConfig()
    store = config.corpus.store(config.last_day, config.seed)
    queries = _drift_workload(config)

    advisor_sim = _run_drift(
        config, store, queries, wave=config.wave, advisor=config.advisor
    )
    advisor_cost = _cumulative_cost(advisor_sim)

    statics: dict[str, dict[str, Any]] = {}
    twin: ClusterSimulation | None = None
    for scheme, n in config.static_designs:
        wave = replace(config.wave, scheme=scheme, n_indexes=n)
        sim = _run_drift(config, store, queries, wave=wave, advisor=None)
        statics[f"{scheme}/{n}"] = {"cumulative_cost": _cumulative_cost(sim)}
        if wave == config.wave:
            twin = sim
    if twin is None:
        # The initial design was not in the grid: run the advisor-off
        # twin separately so bit-identity is still checked against it.
        twin = _run_drift(config, store, queries, wave=config.wave, advisor=None)

    bit_identical = _answers_match(advisor_sim, twin, config, config.last_day)

    best_static = min(statics, key=lambda k: statics[k]["cumulative_cost"])
    best_static_cost = statics[best_static]["cumulative_cost"]
    beats_every_static = advisor_cost < best_static_cost
    advantage = (
        best_static_cost / advisor_cost if advisor_cost > 0 else 0.0
    )

    divergent, divergent_identical = _run_divergent_pair(config)
    divergent_gain = (
        divergent["divergent_qps"] / divergent["uniform_qps"]
        if divergent["uniform_qps"] > 0
        else 0.0
    )
    divergent_beats_uniform = (
        divergent["divergent_qps"] > divergent["uniform_qps"]
    )

    retunes = sum(d.retunes for d in advisor_sim.result.days)
    claim = {
        "beats_every_static": beats_every_static,
        "divergent_beats_uniform": divergent_beats_uniform,
        "bit_identical": bit_identical and divergent_identical,
        "retuned": retunes >= 2,
    }
    claim["pass"] = all(claim.values())

    headline = {
        "advisor_drift_advantage": advantage,
        "advisor_cost": advisor_cost,
        "best_static": best_static,
        "best_static_cost": best_static_cost,
        "beats_every_static": beats_every_static,
        "retunes": retunes,
        "retunes_aborted": sum(
            d.retunes_aborted for d in advisor_sim.result.days
        ),
        "uniform_qps": divergent["uniform_qps"],
        "divergent_qps": divergent["divergent_qps"],
        "divergent_gain": divergent_gain,
        "divergent_beats_uniform": divergent_beats_uniform,
        "bit_identical": bit_identical and divergent_identical,
        "claim": claim,
    }
    p1, p2, p3 = config.phase_starts
    report = {
        "bench": "advisor",
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "window": config.wave.window,
            "n_indexes": config.wave.n_indexes,
            "scheme": config.wave.scheme,
            "domain": config.corpus.domain,
            "records_per_day": config.corpus.records_per_day,
            "phase_days": config.phase_days,
            "phases": [
                {
                    "start_day": p1,
                    "kind": "probe-heavy",
                    "probes_per_day": config.probe_phase_probes,
                    "scans_per_day": 0,
                },
                {
                    "start_day": p2,
                    "kind": "scan-heavy-newest",
                    "probes_per_day": config.scan_phase_probes,
                    "scans_per_day": config.scan_phase_scans,
                },
                {
                    "start_day": p3,
                    "kind": "mixed",
                    "probes_per_day": config.mixed_phase_probes,
                    "scans_per_day": config.mixed_phase_scans,
                },
            ],
            "volume_ramp": config.volume_ramp,
            "seed": config.seed,
        },
        "advisor": {
            "observe_days": config.advisor.observe_days,
            "cooldown_days": config.advisor.cooldown_days,
            "amortization_days": config.advisor.amortization_days,
            "static_designs": [
                f"{scheme}/{n}" for scheme, n in config.static_designs
            ],
        },
        "timeline": _timeline(advisor_sim),
        "statics": statics,
        "divergent": divergent,
        "headline": headline,
    }
    return BENCH.validate(report)


def _check(report: dict[str, Any]) -> None:
    if not report["statics"]:
        raise ValueError("advisor report raced no static designs")
    if report["headline"]["advisor_drift_advantage"] < 0:
        raise ValueError("negative advisor_drift_advantage")


def render_summary(report: dict[str, Any]) -> str:
    """Return a human-readable bench summary for the CLI."""
    w = report["workload"]
    h = report["headline"]
    lines = [
        "Online tuning advisor: start {scheme}/{n_indexes} W={window}, "
        "3 x {phase_days}-day phases".format(**w),
        "",
        f"{'day':>4} {'queries':>8} {'cost':>9} {'retunes':>8}  designs",
    ]
    for entry in report["timeline"]:
        if not (
            entry["retunes"]
            or entry["retunes_aborted"]
            or entry["day"] in {p["start_day"] for p in w["phases"]}
        ):
            continue
        designs = ", ".join(
            f"{k}={v}" for k, v in sorted(entry.get("designs", {}).items())
        )
        lines.append(
            f"{entry['day']:>4} {entry['queries']:>8} "
            f"{entry['cost_seconds']:>9.3f} {entry['retunes']:>8}  {designs}"
        )
    lines.append("")
    ranked = sorted(
        report["statics"].items(), key=lambda kv: kv[1]["cumulative_cost"]
    )
    for label, data in ranked[:3]:
        verdict = (
            "beaten" if h["advisor_cost"] < data["cumulative_cost"] else "AHEAD"
        )
        lines.append(
            f"  static {label:<12} {data['cumulative_cost']:>9.3f} s "
            f"({verdict})"
        )
    lines.append(
        f"  advisor {h['advisor_cost']:.3f} s over {h['retunes']} retune(s); "
        f"drift advantage {h['advisor_drift_advantage']:.4f}x vs best "
        f"static {h['best_static']}"
    )
    lines.append(
        f"  divergent {h['divergent_qps']:.2f} qps vs uniform "
        f"{h['uniform_qps']:.2f} qps ({h['divergent_gain']:.3f}x); "
        f"answers {'bit-identical' if h['bit_identical'] else 'DIVERGED'}"
    )
    lines.append(f"  claim: {'PASS' if h['claim']['pass'] else 'FAIL'}")
    return "\n".join(lines)


BENCH = Bench(
    name="advisor",
    config=AdvisorBenchConfig,
    quick_config=quick_config,
    run=run_advisor_bench,
    render_summary=render_summary,
    schema=Schema(
        keys=(
            "workload",
            "advisor",
            "timeline",
            "statics",
            "divergent",
            "headline",
        ),
        rows="timeline",
        row_keys=(
            "day",
            "queries",
            "makespan_seconds",
            "cost_seconds",
            "retunes",
            "retunes_aborted",
        ),
        headline=(
            "advisor_drift_advantage",
            "advisor_cost",
            "best_static",
            "best_static_cost",
            "beats_every_static",
            "retunes",
            "uniform_qps",
            "divergent_qps",
            "divergent_gain",
            "divergent_beats_uniform",
            "bit_identical",
            "claim",
        ),
    ),
    claim=claim_passes,
    check=_check,
)

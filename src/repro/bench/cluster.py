"""The cluster benchmark: sharded scaling and staggered maintenance.

The cluster layer (:mod:`repro.cluster`) makes two claims measurable:

* **Throughput scales with shard count** — ``k`` shards on ``k`` devices
  serve the same query stream faster than one index on one device,
  because probes split across shards and each shard's maintenance plan
  covers only its slice of the data.
* **Staggered beats lockstep during transitions** — bounding how many
  shards transition at once (``ceil(k * max_concurrent_frac)``) keeps
  most of the cluster serving at steady-state latency while a few shards
  reorganize, cutting the during-transition p95 against the naive
  all-at-once schedule.

For each shard count the benchmark replays the same store and the same
daily query stream; at the largest shard count it additionally compares
lockstep vs staggered day-boundary scheduling.  Results go to
``BENCH_cluster.json``; both claims set ``repro bench-cluster``'s exit
code, and ``repro bench-check`` gates their headlines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, ClassVar

from ..cluster import ClusterConfig
from ..core.records import RecordStore
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
    ratio,
)


@dataclass(frozen=True)
class ClusterBenchConfig:
    """Parameters of one cluster-benchmark run.

    The defaults model a small text window served by a four-shard
    cluster: a Netnews-style store partitioned by hash, a Zipf-skewed
    probe stream plus a few scans per day, and a conservative stagger
    (one shard in transition at a time at ``k = 4``).  Each run sets
    ``cluster``'s shard count and maintenance schedule.
    """

    wave: Wave = Wave(window=10, n_indexes=4, scheme="REINDEX")
    corpus: TextCorpus = TextCorpus(docs_per_day=24, words_per_doc=12, zipf_s=1.0)
    queries: QueryStream = QueryStream(probes_per_day=40, scans_per_day=3)
    cluster: ClusterConfig = ClusterConfig(
        replication=1,
        partitioner="hash",
        max_concurrent_frac=0.25,
        arrival_stretch=2.0,
    )
    transitions: int = 8
    shard_counts: tuple[int, ...] = (1, 2, 4)
    seed: int = 7
    #: Each run sets the shard count and the maintenance schedule.
    settable: ClassVar[dict[str, tuple[str, ...]]] = {
        "cluster": (
            "replication", "partitioner", "max_concurrent_frac", "arrival_stretch"
        ),
    }

    def __post_init__(self) -> None:
        check_fixed(self)
        if self.transitions < 1:
            raise ValueError(
                f"transitions must be >= 1, got {self.transitions}"
            )
        if not self.shard_counts:
            raise ValueError("need at least one shard count")
        if any(k < 1 for k in self.shard_counts):
            raise ValueError(
                f"shard counts must be >= 1, got {self.shard_counts}"
            )
        if 1 not in self.shard_counts:
            raise ValueError(
                "shard_counts must include 1 (the single-index baseline)"
            )
        if max(self.shard_counts) < 2:
            raise ValueError(
                "shard_counts must include a multi-shard point (k >= 2)"
            )

    @property
    def last_day(self) -> int:
        """Return the final simulated day."""
        return self.wave.window + self.transitions


def quick_config(base: ClusterBenchConfig | None = None) -> ClusterBenchConfig:
    """Return a CI-sized variant of ``base`` (same shape, smaller run)."""
    # The workload *mix* (probes vs scans per day) is kept at the full
    # run's proportions: scans fan out to every shard and probes split,
    # so the mix sets the throughput-scaling headline — shrinking it
    # would push the quick value outside the bench-check gate's band
    # around the committed full-run baseline.
    return override(
        base or ClusterBenchConfig(),
        window=8,
        transitions=6,
        shard_counts=(1, 4),
        docs_per_day=14,
    )


def _run_one(
    config: ClusterBenchConfig,
    store: RecordStore,
    n_shards: int,
    maintenance: str,
) -> dict[str, Any]:
    """Run one cluster configuration; return its report entry."""
    cluster = replace(config.cluster, n_shards=n_shards, maintenance=maintenance)
    result = build_world(
        config.wave,
        store,
        cluster,
        queries=config.queries.workload(config.corpus.picker(), config.seed + 1),
    ).run(config.last_day)
    maintenance_seconds = sum(
        d.seconds.total for shard in result.shard_results for d in shard.days
    )
    query_seconds = sum(
        d.query_seconds for shard in result.shard_results for d in shard.days
    )
    return {
        "n_shards": n_shards,
        "replication": cluster.replication,
        "maintenance": maintenance,
        "makespan_seconds": result.total_makespan_seconds(),
        "maintenance_seconds": maintenance_seconds,
        "query_seconds": query_seconds,
        "queries": result.total_requests(),
        "queries_degraded": result.total_queries_degraded(),
        "failovers": result.total_failovers(),
        "queries_per_second": result.queries_per_second(),
        "latency_during_transition": result.latency_during,
        "latency_steady_state": result.latency_steady,
    }


def run_cluster_bench(
    config: ClusterBenchConfig | None = None,
) -> dict[str, Any]:
    """Run the shard-count sweep plus the stagger comparison.

    Every run replays the same store and the same per-day query stream;
    the ``k = 1`` lockstep run is the single-index serialized driver
    (the cluster equivalence suite holds it to the old one), so the
    scaling headline is measured against the paper's own baseline, not a
    degraded strawman.
    """
    config = config or ClusterBenchConfig()
    store = config.corpus.store(config.last_day, config.seed)
    k_max = max(config.shard_counts)

    runs: list[dict[str, Any]] = []
    by_key: dict[tuple[int, str], dict[str, Any]] = {}
    for n_shards in sorted(set(config.shard_counts)):
        modes = ["lockstep"]
        if n_shards == k_max:
            modes.append("staggered")
        for maintenance in modes:
            entry = _run_one(config, store, n_shards, maintenance)
            runs.append(entry)
            by_key[(n_shards, maintenance)] = entry

    single = by_key[(1, "lockstep")]
    lockstep = by_key[(k_max, "lockstep")]
    staggered = by_key[(k_max, "staggered")]

    def p95_during(entry: dict[str, Any]) -> float | None:
        summary = entry.get("latency_during_transition")
        return summary.get("p95") if summary else None

    stag_p95 = p95_during(staggered)
    lock_p95 = p95_during(lockstep)
    headline = {
        "k_max": k_max,
        "throughput_scaling": ratio(
            staggered["queries_per_second"], single["queries_per_second"]
        ),
        "throughput_scaling_lockstep": ratio(
            lockstep["queries_per_second"], single["queries_per_second"]
        ),
        "staggered_p95_ratio": ratio(stag_p95, lock_p95),
        "staggered_p95_improved": (
            stag_p95 is not None
            and lock_p95 is not None
            and stag_p95 < lock_p95
        ),
        "staggered_makespan_ratio": ratio(
            staggered["makespan_seconds"], lockstep["makespan_seconds"]
        ),
    }
    report = {
        "bench": "cluster",
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
            "seed": config.seed,
        },
        "cluster": {
            "shard_counts": list(sorted(set(config.shard_counts))),
            "replication": config.cluster.replication,
            "partitioner": config.cluster.partitioner,
            "max_concurrent_frac": config.cluster.max_concurrent_frac,
            "arrival_stretch": config.cluster.arrival_stretch,
        },
        "runs": runs,
        "headline": headline,
    }
    return BENCH.validate(report)


def _check(report: dict[str, Any]) -> None:
    for entry in report["runs"]:
        if entry["makespan_seconds"] < 0:
            raise ValueError(f"negative makespan in {entry}")


def _claim(report: dict[str, Any]) -> bool:
    """k shards out-serve the single index, and staggering the
    transitions cuts the during-transition p95 against lockstep."""
    headline = report["headline"]
    scaling = headline["throughput_scaling"]
    return (
        scaling is not None
        and scaling > 1.0
        and headline["staggered_p95_improved"]
    )


def render_summary(report: dict[str, Any]) -> str:
    """Return a human-readable comparison table for the CLI."""
    w = report["workload"]
    c = report["cluster"]
    lines = [
        "Cluster bench: {scheme} W={window} n={n_indexes}, "
        "{transitions} transitions, {probes_per_day} probes + "
        "{scans_per_day} scans/day".format(**w),
        f"shards {c['shard_counts']}, r={c['replication']}, "
        f"{c['partitioner']} partitioner, stagger frac "
        f"{c['max_concurrent_frac']}",
        "",
        f"{'k':>3} {'maintenance':<11} {'qps':>9} {'p95 during':>11} "
        f"{'p95 steady':>11} {'makespan':>10}",
    ]

    def p95(summary: dict[str, float] | None) -> str:
        if not summary:
            return "-"
        return f"{summary['p95']:.4f}"

    for entry in report["runs"]:
        lines.append(
            f"{entry['n_shards']:>3} {entry['maintenance']:<11} "
            f"{entry['queries_per_second']:>9.1f} "
            f"{p95(entry['latency_during_transition']):>11} "
            f"{p95(entry['latency_steady_state']):>11} "
            f"{entry['makespan_seconds']:>10.3f}"
        )
    h = report["headline"]

    def fmt(value: float | None) -> str:
        return f"{value:.2f}x" if value is not None else "-"

    lines.append("")
    lines.append(
        f"  throughput scaling (k={h['k_max']} staggered / single index): "
        + fmt(h["throughput_scaling"])
    )
    lines.append(
        "  staggered/lockstep during-transition p95: "
        + fmt(h["staggered_p95_ratio"])
        + (
            "  (improved)"
            if h["staggered_p95_improved"]
            else "  (NOT improved)"
        )
    )
    return "\n".join(lines)


BENCH = Bench(
    name="cluster",
    config=ClusterBenchConfig,
    quick_config=quick_config,
    run=run_cluster_bench,
    render_summary=render_summary,
    schema=Schema(
        keys=("workload", "cluster", "runs", "headline"),
        rows="runs",
        row_keys=(
            "n_shards",
            "maintenance",
            "makespan_seconds",
            "maintenance_seconds",
            "query_seconds",
            "queries",
            "queries_degraded",
            "failovers",
            "queries_per_second",
            "latency_during_transition",
            "latency_steady_state",
        ),
        headline=(
            "throughput_scaling",
            "staggered_p95_ratio",
            "staggered_p95_improved",
        ),
    ),
    claim=_claim,
    check=_check,
)

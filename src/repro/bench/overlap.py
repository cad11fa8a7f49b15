"""The overlap benchmark: serialized vs overlapped maintenance/serving.

The paper argues (Section 3) that a wave index keeps serving while it
reorganizes, because maintenance touches one constituent at a time.  The
cluster's day loop (:class:`~repro.cluster.ClusterSimulation`) makes that
claim measurable; this benchmark quantifies it.  For each scheme it runs
the same store and the same query stream twice, each time as one shard
with one replica under the wait policy:

* **serialized** — the replica on one device: every query lands behind
  the whole day's maintenance and behind every earlier query, which is
  the classic driver's world laid on a timeline;
* **overlapped** — the replica spanning ``k`` devices and rotating its
  index creations over them, so REINDEX-family rebuilds stream to a
  spindle the serving constituents don't live on.

The compared quantities are the day-timeline **makespan** (maintenance
and serving overlapped vs back-to-back) and the query-latency tail
(p50/p95/p99) split into requests that arrived *during* the transition vs
after it.  Results go to ``BENCH_overlap.json``; the bench's claim, which
sets ``repro bench-overlap``'s exit code, is that for the REINDEX family
the overlapped during-transition p95 is strictly below the serialized one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, ClassVar

from ..cluster.sim import ClusterConfig
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

#: Per-mode keys every scheme entry must carry for both run modes.
REQUIRED_MODE_KEYS = (
    "makespan_seconds",
    "maintenance_seconds",
    "query_seconds",
    "queries",
    "queries_waited",
    "queries_degraded",
    "latency_during_transition",
    "latency_steady_state",
)

#: Schemes the benchmark compares — the six of Sections 3–4 plus the
#: Table-4 WATA variant; all constructible from (window, n) alone.
DEFAULT_SCHEMES = (
    "DEL",
    "REINDEX",
    "REINDEX+",
    "REINDEX++",
    "WATA*",
    "RATA*",
    "WATA(table4)",
)

#: Schemes whose transition rebuilds whole constituents from base data —
#: the family the paper (and our CI gate) expects to benefit most from
#: building on a device the serving constituents don't occupy.
REINDEX_FAMILY = ("REINDEX", "REINDEX+", "REINDEX++")


@dataclass(frozen=True)
class OverlapBenchConfig:
    """Parameters of one overlap-benchmark run.

    The defaults model a small text window: a Netnews-style store, a
    Zipf-skewed probe stream plus a few scans per day, and a 3-device
    array for the overlapped mode.  Each of ``schemes`` runs in turn as
    ``wave``'s scheme; ``cluster`` is the serialized mode's one shard on
    one device.
    """

    wave: Wave = Wave(window=10, n_indexes=4, scheme=DEFAULT_SCHEMES[0])
    corpus: TextCorpus = TextCorpus(docs_per_day=24, words_per_doc=12, zipf_s=1.0)
    queries: QueryStream = QueryStream(probes_per_day=30, scans_per_day=3)
    cluster: ClusterConfig = ClusterConfig(
        n_shards=1, maintenance="lockstep", arrival_stretch=2.0
    )
    transitions: int = 8
    schemes: tuple[str, ...] = DEFAULT_SCHEMES
    n_devices: int = 3
    seed: int = 7
    #: Each of ``schemes`` runs as the wave's scheme, and each mode sets
    #: its devices per replica.
    settable: ClassVar[dict[str, tuple[str, ...]]] = {
        "wave": ("window", "n_indexes"),
        "cluster": ("arrival_stretch",),
    }

    def __post_init__(self) -> None:
        check_fixed(self)
        if self.transitions < 1:
            raise ValueError(
                f"transitions must be >= 1, got {self.transitions}"
            )
        if not self.schemes:
            raise ValueError("need at least one scheme")
        if self.n_devices < 2:
            raise ValueError(
                f"overlapped mode needs >= 2 devices, got {self.n_devices}"
            )
        for name in self.schemes:
            replace(self.wave, scheme=name)  # the wave checks each

    @property
    def last_day(self) -> int:
        """Return the final simulated day."""
        return self.wave.window + self.transitions


def quick_config(base: OverlapBenchConfig | None = None) -> OverlapBenchConfig:
    """Return a CI-sized variant of ``base`` (same modes, smaller run)."""
    return override(
        base or OverlapBenchConfig(),
        window=7,
        transitions=5,
        docs_per_day=10,
        probes_per_day=12,
        scans_per_day=2,
    )


def _run_mode(
    config: OverlapBenchConfig,
    scheme_name: str,
    store: RecordStore,
    cluster: ClusterConfig,
) -> dict[str, Any]:
    """Run one scheme on one configuration of the cluster; return measures."""
    sim = build_world(
        replace(config.wave, scheme=scheme_name),
        store,
        cluster,
        queries=config.queries.workload(config.corpus.picker(), config.seed + 1),
    )
    result = sim.run(config.last_day)
    days = result.shard_results[0].days
    return {
        "n_devices": cluster.devices_per_replica,
        "policy": cluster.policy.value,
        # One device holds every index; several take creations in turn.
        "placement": "rotate" if cluster.devices_per_replica > 1 else "sticky",
        "makespan_seconds": result.total_makespan_seconds(),
        "maintenance_seconds": sum(d.seconds.total for d in days),
        "query_seconds": sum(d.query_seconds for d in days),
        "queries": result.total_requests(),
        "queries_waited": sum(d.queries_waited for d in result.days),
        "queries_degraded": result.total_queries_degraded(),
        "latency_during_transition": sim.latency_during.summary(),
        "latency_steady_state": sim.latency_steady.summary(),
    }


def run_overlap_bench(config: OverlapBenchConfig | None = None) -> dict[str, Any]:
    """Run every scheme serialized and overlapped; return the JSON report.

    Both modes replay the same store and the same per-day query stream
    through the same day loop — the serialized mode is simply the replica
    on one device (held equal to the classic driver by the cluster
    equivalence suite), so every difference in the report is attributable
    to the array and the overlap, not to measurement skew.
    """
    config = config or OverlapBenchConfig()
    store = config.corpus.store(config.last_day, config.seed)
    serialized_cfg = config.cluster
    overlapped_cfg = replace(serialized_cfg, devices_per_replica=config.n_devices)

    schemes: list[dict[str, Any]] = []
    for name in config.schemes:
        serialized = _run_mode(config, name, store, serialized_cfg)
        overlapped = _run_mode(config, name, store, overlapped_cfg)
        p95_ser = serialized["latency_during_transition"]["p95"]
        p95_ovl = overlapped["latency_during_transition"]["p95"]
        schemes.append(
            {
                "scheme": name,
                "serialized": serialized,
                "overlapped": overlapped,
                "ratios": {
                    "makespan": ratio(
                        overlapped["makespan_seconds"],
                        serialized["makespan_seconds"],
                    ),
                    "p95_during_transition": ratio(p95_ovl, p95_ser),
                    "p99_during_transition": ratio(
                        overlapped["latency_during_transition"]["p99"],
                        serialized["latency_during_transition"]["p99"],
                    ),
                },
                "p95_improved": p95_ovl < p95_ser,
            }
        )

    makespan_ratios = [
        s["ratios"]["makespan"]
        for s in schemes
        if s["ratios"]["makespan"] is not None
    ]
    reindex = [s for s in schemes if s["scheme"] in REINDEX_FAMILY]
    reindex_p95 = [
        s["ratios"]["p95_during_transition"]
        for s in reindex
        if s["ratios"]["p95_during_transition"] is not None
    ]
    headline = {
        "makespan_ratio_mean": (
            sum(makespan_ratios) / len(makespan_ratios)
            if makespan_ratios
            else None
        ),
        "reindex_p95_ratio_best": min(reindex_p95) if reindex_p95 else None,
        "reindex_p95_improved": any(s["p95_improved"] for s in reindex),
        "schemes_improved": sum(1 for s in schemes if s["p95_improved"]),
    }
    report = {
        "bench": "overlap",
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "window": config.wave.window,
            "n_indexes": config.wave.n_indexes,
            "transitions": config.transitions,
            "docs_per_day": config.corpus.docs_per_day,
            "words_per_doc": config.corpus.words_per_doc,
            "vocabulary": config.corpus.vocabulary,
            "probes_per_day": config.queries.probes_per_day,
            "scans_per_day": config.queries.scans_per_day,
            "zipf_s": config.corpus.zipf_s,
            "seed": config.seed,
        },
        "scheduler": {
            "n_devices": config.n_devices,
            "policy": overlapped_cfg.policy.value,
            "placement": "rotate",
            "arrival_stretch": overlapped_cfg.arrival_stretch,
        },
        "schemes": schemes,
        "headline": headline,
    }
    return BENCH.validate(report)


def _check(report: dict[str, Any]) -> None:
    for entry in report["schemes"]:
        for mode in ("serialized", "overlapped"):
            for key in REQUIRED_MODE_KEYS:
                if key not in entry[mode]:
                    raise ValueError(
                        f"scheme {entry.get('scheme')!r} {mode} entry "
                        f"missing key {key!r}"
                    )
            if entry[mode]["makespan_seconds"] < 0:
                raise ValueError(f"negative makespan in {entry}")


def render_summary(report: dict[str, Any]) -> str:
    """Return a human-readable comparison table for the CLI."""
    w = report["workload"]
    s = report["scheduler"]
    lines = [
        "Overlap bench: W={window} n={n_indexes}, {transitions} transitions, "
        "{probes_per_day} probes + {scans_per_day} scans/day".format(**w),
        f"overlapped mode: {s['n_devices']} devices, {s['placement']} "
        f"placement, {s['policy']} policy",
        "",
        f"{'scheme':<14} {'makespan':>9} {'p95 during':>11} "
        f"{'p99 during':>11} {'waited':>7}",
    ]

    def fmt_ratio(value: float | None) -> str:
        return f"{value:.2f}x" if value is not None else "-"

    for entry in report["schemes"]:
        r = entry["ratios"]
        lines.append(
            f"{entry['scheme']:<14} "
            f"{fmt_ratio(r['makespan']):>9} "
            f"{fmt_ratio(r['p95_during_transition']):>11} "
            f"{fmt_ratio(r['p99_during_transition']):>11} "
            f"{entry['overlapped']['queries_waited']:>7}"
        )
    h = report["headline"]
    lines.append("")
    lines.append(
        "  mean makespan ratio (overlapped/serialized): "
        + fmt_ratio(h["makespan_ratio_mean"])
    )
    lines.append(
        "  best REINDEX-family p95 ratio: "
        + fmt_ratio(h["reindex_p95_ratio_best"])
        + ("  (improved)" if h["reindex_p95_improved"] else "  (NOT improved)")
    )
    return "\n".join(lines)


BENCH = Bench(
    name="overlap",
    config=OverlapBenchConfig,
    quick_config=quick_config,
    run=run_overlap_bench,
    render_summary=render_summary,
    schema=Schema(
        keys=("workload", "scheduler", "schemes", "headline"),
        rows="schemes",
        row_keys=("serialized", "overlapped", "ratios", "p95_improved"),
        headline=("reindex_p95_improved",),
    ),
    # At least one REINDEX-family scheme's during-transition p95 drops
    # when serving overlaps maintenance on the array.
    claim=lambda report: report["headline"]["reindex_p95_improved"],
    check=_check,
)

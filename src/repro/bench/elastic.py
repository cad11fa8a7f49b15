"""The elastic-resharding benchmark: throughput recovery after a load spike.

The elastic engine (:mod:`repro.cluster.elastic`) claims a cluster hit
by a sustained load spike on one partition range recovers its
throughput by *splitting the hot shard online* — no downtime, no manual
repartitioning.  This bench makes the claim measurable:

* A range-partitioned cluster (integer keys, one shard per device)
  serves a steady query stream; from ``spike_day`` on, probe traffic on
  one partition range is multiplied ``spike_factor x``
  (:class:`~repro.sim.querygen.SpikedWorkload`).
* The autoscaler sees the imbalance at the end of the spike day,
  queues a split of the hot shard, and the engine executes it at the
  start of the next day — copy, catch-up, atomic routing swap — while
  the day's queries keep being served.
* A **static control** run (identical store, identical stream, no
  elasticity) shows what the spike does to a frozen topology.

The headline, ``throughput_recovery_makespan``, is the summed cluster
makespan from the spike day until daily throughput is back above
``recovery_fraction x`` the pre-spike baseline — the elastic analogue
of the chaos soak's recovery makespan.  ``repro bench-elastic`` writes
``BENCH_elastic.json``; ``repro bench-check`` gates the headline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, ClassVar

from ..cluster import ClusterConfig, ClusterSimulation, ElasticConfig
from ..core.records import RecordStore
from ..sim.querygen import SpikedWorkload
from .harness import (
    SCHEMA_VERSION,
    Bench,
    IntCorpus,
    QueryStream,
    Schema,
    Wave,
    build_world,
    check_fixed,
    claim_passes,
)


@dataclass(frozen=True)
class ElasticBenchConfig:
    """Parameters of the spike-recovery benchmark.

    The defaults model the acceptance scenario: a three-shard
    range-partitioned cluster, a sustained 4x probe spike confined to
    the middle partition range, and the autoscaler left to react.  The
    elastic run is ``cluster`` with ``elastic`` set; the static control
    is ``cluster`` alone.
    """

    wave: Wave = Wave(window=7, n_indexes=3, scheme="REINDEX")
    corpus: IntCorpus = IntCorpus(domain=600, records_per_day=24, record_bytes=64)
    #: Probe-only stream: segment scans cost the same on every shard
    #: and would flatten the per-shard skew the spike creates.
    queries: QueryStream = QueryStream(probes_per_day=60, scans_per_day=0)
    cluster: ClusterConfig = ClusterConfig(
        n_shards=3, replication=1, partitioner="range", range_splits=(200, 400)
    )
    elastic: ElasticConfig = ElasticConfig(
        autoscale=True,
        split_load_factor=2.0,
        merge_load_factor=0.2,
        min_shards=2,
        max_shards=6,
        cooldown_days=1,
    )
    transitions: int = 10
    #: Days after the initial build before the spike lands.
    spike_after: int = 3
    spike_factor: float = 4.0
    #: The hot partition range [hot_lo, hot_hi] the spike probes.
    hot_lo: int = 200
    hot_hi: int = 399
    #: A day counts as recovered when its qps is back above this
    #: fraction of the pre-spike baseline.
    recovery_fraction: float = 0.9
    seed: int = 7
    #: The elastic run sets ``cluster.elastic``; the control leaves it off.
    settable: ClassVar[dict[str, tuple[str, ...]]] = {
        "cluster": ("n_shards", "replication", "range_splits"),
        "elastic": (
            "split_load_factor", "merge_load_factor", "max_shards", "cooldown_days"
        ),
    }

    def __post_init__(self) -> None:
        check_fixed(self)
        if self.transitions < self.spike_after + 3:
            raise ValueError(
                "transitions must leave at least two days after the "
                f"spike for the split and the recovery, got "
                f"{self.transitions} with spike_after={self.spike_after}"
            )
        if self.spike_after < 1:
            raise ValueError(
                f"spike_after must be >= 1, got {self.spike_after}"
            )
        if not 1 <= self.hot_lo <= self.hot_hi <= self.corpus.domain:
            raise ValueError(
                f"hot range [{self.hot_lo}, {self.hot_hi}] outside "
                f"domain [1, {self.corpus.domain}]"
            )
        if not 0.0 < self.recovery_fraction <= 1.0:
            raise ValueError(
                f"recovery_fraction must be in (0, 1], "
                f"got {self.recovery_fraction}"
            )

    @property
    def last_day(self) -> int:
        """Return the final simulated day."""
        return self.wave.window + self.transitions

    @property
    def spike_day(self) -> int:
        """Return the day the spike lands."""
        return self.wave.window + self.spike_after


def quick_config(base: ElasticBenchConfig | None = None) -> ElasticBenchConfig:
    """Return a CI-sized variant of ``base``.

    The store shape, query rates, and spike are kept at the full run's
    size — the recovery headline is a sum of spike-to-recovery day
    makespans, which all of those feed — so the quick value stays inside
    the bench-check gate's band.  Only the post-recovery tail shrinks.
    """
    base = base or ElasticBenchConfig()
    return replace(base, transitions=base.spike_after + 4)


def _workload(config: ElasticBenchConfig) -> SpikedWorkload:
    """Return one instance of the spiked daily query stream."""
    hot_lo, hot_hi = config.hot_lo, config.hot_hi

    def hot_picker(rng: random.Random) -> int:
        return rng.randint(hot_lo, hot_hi)

    return SpikedWorkload(
        base=config.queries.workload(config.corpus.picker(), config.seed + 1),
        spike_day=config.spike_day,
        hot_picker=hot_picker,
        spike_factor=config.spike_factor,
    )


def _make_sim(
    config: ElasticBenchConfig, store: RecordStore, *, elastic: bool
) -> ClusterSimulation:
    return build_world(
        config.wave,
        store,
        replace(config.cluster, elastic=config.elastic if elastic else None),
        queries=_workload(config),
    )


def _timeline(sim: ClusterSimulation) -> list[dict[str, Any]]:
    """Return the run's per-day throughput timeline."""
    out = []
    for stats in sim.result.days:
        # Throughput against the serving bottleneck: the busiest
        # shard's serving time bounds the rate the cluster can absorb,
        # and it is what a hot-range spike saturates.  Whole-day
        # makespan would mix in maintenance, which the spike and the
        # split barely move.
        bottleneck = max(stats.query_seconds, default=0.0)
        qps = stats.queries / bottleneck if bottleneck > 0 else 0.0
        entry: dict[str, Any] = {
            "day": stats.day,
            "queries": stats.queries,
            "makespan_seconds": stats.makespan_seconds,
            "serving_bottleneck_seconds": bottleneck,
            "qps": qps,
            "n_shards": stats.n_shards,
            "reshards": stats.reshards,
            "reshards_aborted": stats.reshards_aborted,
            "reshard_kinds": list(stats.reshard_kinds),
            "reshard_seconds": stats.reshard_seconds,
            "topology_version": stats.topology_version,
        }
        if stats.reshard_deferred:
            entry["reshard_deferred"] = stats.reshard_deferred
        if stats.autoscaler and (
            stats.autoscaler["queued"] or stats.autoscaler["deferred_reason"]
        ):
            entry["autoscaler"] = stats.autoscaler
        out.append(entry)
    return out


def _baseline_qps(
    timeline: list[dict[str, Any]], window: int, spike_day: int
) -> float:
    """Return the mean pre-spike qps over post-warmup days.

    A spike on (or before) the first post-warmup day leaves no baseline
    days; rate convention: 0.0, making the recovery threshold trivially
    met rather than dividing by zero.
    """
    baseline_days = [
        e for e in timeline if window < e["day"] < spike_day
    ]
    if not baseline_days:
        return 0.0
    return sum(e["qps"] for e in baseline_days) / len(baseline_days)


def run_elastic_bench(
    config: ElasticBenchConfig | None = None,
) -> dict[str, Any]:
    """Run the spiked cluster and its static control; return the report."""
    config = config or ElasticBenchConfig()
    store = config.corpus.store(config.last_day, config.seed)
    sim = _make_sim(config, store, elastic=True)
    sim.run(config.last_day)
    static = _make_sim(config, store, elastic=False)
    static.run(config.last_day)

    timeline = _timeline(sim)
    static_timeline = _timeline(static)
    spike_day = config.spike_day

    baseline_qps = _baseline_qps(timeline, config.wave.window, spike_day)
    threshold = config.recovery_fraction * baseline_qps

    recovery_day: int | None = None
    recovery_makespan = 0.0
    for entry in timeline:
        if entry["day"] < spike_day:
            continue
        recovery_makespan += entry["makespan_seconds"]
        if entry["qps"] >= threshold:
            recovery_day = entry["day"]
            break
    recovered = recovery_day is not None

    post_days = [
        e for e in timeline
        if recovery_day is not None and e["day"] >= recovery_day
    ]
    post_recovery_qps = (
        sum(e["qps"] for e in post_days) / len(post_days)
        if post_days
        else 0.0
    )
    # The static control over the same calendar slice: what the spike
    # does to a topology that cannot adapt.
    static_spiked = [e for e in static_timeline if e["day"] >= spike_day]
    static_spiked_qps = (
        sum(e["qps"] for e in static_spiked) / len(static_spiked)
        if static_spiked
        else 0.0
    )

    splits_applied = sum(
        e["reshard_kinds"].count("split") for e in timeline
    )
    claim = {
        "recovered": recovered,
        "split_applied": splits_applied >= 1,
        "beats_static": post_recovery_qps > static_spiked_qps,
    }
    claim["pass"] = all(claim.values())

    headline = {
        "throughput_recovery_makespan": recovery_makespan,
        "recovered": recovered,
        "recovery_days": (
            recovery_day - spike_day + 1 if recovery_day is not None else None
        ),
        "spike_day": spike_day,
        "baseline_qps": baseline_qps,
        "recovery_threshold_qps": threshold,
        "post_recovery_qps": post_recovery_qps,
        "splits_applied": splits_applied,
        "reshards_aborted": sum(e["reshards_aborted"] for e in timeline),
        "final_n_shards": timeline[-1]["n_shards"],
        "static_spiked_qps": static_spiked_qps,
        "claim": claim,
    }
    report = {
        "bench": "elastic",
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "window": config.wave.window,
            "n_indexes": config.wave.n_indexes,
            "transitions": config.transitions,
            "scheme": config.wave.scheme,
            "domain": config.corpus.domain,
            "records_per_day": config.corpus.records_per_day,
            "probes_per_day": config.queries.probes_per_day,
            "scans_per_day": config.queries.scans_per_day,
            "spike_day": spike_day,
            "spike_factor": config.spike_factor,
            "hot_range": [config.hot_lo, config.hot_hi],
            "recovery_fraction": config.recovery_fraction,
            "seed": config.seed,
        },
        "cluster": {
            "n_shards": config.cluster.n_shards,
            "replication": config.cluster.replication,
            "partitioner": config.cluster.partitioner,
            "range_splits": list(config.cluster.range_splits),
            "split_load_factor": config.elastic.split_load_factor,
            "merge_load_factor": config.elastic.merge_load_factor,
            "max_shards": config.elastic.max_shards,
            "cooldown_days": config.elastic.cooldown_days,
        },
        "timeline": timeline,
        "static": static_timeline,
        "headline": headline,
    }
    return BENCH.validate(report)


def _check(report: dict[str, Any]) -> None:
    if report["headline"]["throughput_recovery_makespan"] < 0:
        raise ValueError("negative throughput_recovery_makespan")


def render_summary(report: dict[str, Any]) -> str:
    """Return a human-readable bench summary for the CLI."""
    w = report["workload"]
    c = report["cluster"]
    h = report["headline"]
    lines = [
        "Elastic resharding: {scheme} W={window} n={n_indexes}, "
        "{transitions} transitions".format(**w),
        f"k={c['n_shards']} range-partitioned, "
        f"{w['spike_factor']}x spike on "
        f"[{w['hot_range'][0]}, {w['hot_range'][1]}] from day "
        f"{w['spike_day']}",
        "",
        f"{'day':>4} {'queries':>8} {'makespan':>9} {'qps':>8} "
        f"{'k':>3} {'reshards':>9} {'static qps':>11}",
    ]
    static_by_day = {e["day"]: e for e in report["static"]}
    for entry in report["timeline"]:
        kinds = ",".join(entry["reshard_kinds"]) or "-"
        if entry.get("reshard_deferred"):
            kinds = f"({entry['reshard_deferred']})"
        marker = " <- spike" if entry["day"] == w["spike_day"] else ""
        static_qps = static_by_day.get(entry["day"], {}).get("qps", 0.0)
        lines.append(
            f"{entry['day']:>4} {entry['queries']:>8} "
            f"{entry['makespan_seconds']:>9.3f} {entry['qps']:>8.2f} "
            f"{entry['n_shards']:>3} {kinds:>9} {static_qps:>11.2f}"
            f"{marker}"
        )
    lines.append("")
    recovery = (
        f"{h['recovery_days']} day(s)" if h["recovered"] else "NEVER"
    )
    lines.append(
        f"  baseline {h['baseline_qps']:.2f} qps; recovered in {recovery} "
        f"(makespan {h['throughput_recovery_makespan']:.3f} s) after "
        f"{h['splits_applied']} split(s)"
    )
    lines.append(
        f"  post-recovery {h['post_recovery_qps']:.2f} qps vs static "
        f"spiked {h['static_spiked_qps']:.2f} qps "
        f"({'beats' if h['claim']['beats_static'] else 'DOES NOT beat'} "
        f"the frozen topology)"
    )
    lines.append(
        f"  claim: {'PASS' if h['claim']['pass'] else 'FAIL'}"
    )
    return "\n".join(lines)


BENCH = Bench(
    name="elastic",
    config=ElasticBenchConfig,
    quick_config=quick_config,
    run=run_elastic_bench,
    render_summary=render_summary,
    schema=Schema(
        keys=("workload", "cluster", "timeline", "static", "headline"),
        rows="timeline",
        row_keys=(
            "day",
            "queries",
            "makespan_seconds",
            "qps",
            "n_shards",
            "reshards",
            "reshards_aborted",
        ),
        headline=(
            "throughput_recovery_makespan",
            "recovered",
            "recovery_days",
            "spike_day",
            "baseline_qps",
            "post_recovery_qps",
            "splits_applied",
            "static_spiked_qps",
            "claim",
        ),
    ),
    claim=claim_passes,
    check=_check,
)

"""Bench-regression gate: compare headline metrics against a baseline.

The repo commits its perf trajectory in ``BENCH_baseline.json``: one
headline number per benchmark (the serving replay's batched+cached
speedup, the overlap scheduler's makespan and tail-latency ratios).  CI's
bench smoke jobs re-run the quick benchmarks, extract the same headlines
from the fresh artifacts, and fail when any of them regresses by more
than :data:`DEFAULT_THRESHOLD` against the committed value — with a diff
table showing exactly which metric moved and by how much.

The simulated substrate is deterministic, so on an unchanged tree the
current value *equals* the baseline; the 25% allowance is headroom for
intentional trade-offs, not for noise.  After an accepted perf change,
refresh the baseline with ``repro bench-check --update``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Schema version stamped into BENCH_baseline.json.
SCHEMA_VERSION = 1

#: Relative regression that fails the gate (0.25 = 25% worse than baseline).
DEFAULT_THRESHOLD = 0.25


@dataclass(frozen=True)
class HeadlineMetric:
    """One gated metric: where it lives and which direction is better."""

    name: str
    bench: str
    #: Keys leading from the report's top level to the value.
    path: tuple[str, ...]
    higher_is_better: bool
    description: str
    #: An optional metric may be absent from a fresh report of its
    #: benchmark (e.g. a machine-dependent headline a smoke run does not
    #: produce); absence skips the gate instead of failing it.
    optional: bool = False
    #: An exact metric is a correctness invariant wearing a number (a
    #: lost-request count, a checksum): the gate is equality with the
    #: baseline, never a percentage allowance, and zero baselines are
    #: legitimate.
    exact: bool = False

    def extract(self, report: dict[str, Any]) -> float | None:
        """Pull this metric's value out of its benchmark report."""
        value: Any = report
        for key in self.path:
            value = value.get(key) if isinstance(value, dict) else None
        return value


#: The committed perf trajectory, one headline per benchmark dimension.
HEADLINE_METRICS: tuple[HeadlineMetric, ...] = (
    HeadlineMetric(
        "serving_speedup_batch256",
        "serving",
        ("speedups", "batch256_cached_vs_unbatched_uncached"),
        higher_is_better=True,
        description="batched+cached serving speedup over the paper's model",
    ),
    HeadlineMetric(
        "overlap_makespan_ratio_mean",
        "overlap",
        ("headline", "makespan_ratio_mean"),
        higher_is_better=False,
        description="mean overlapped/serialized day-timeline makespan",
    ),
    HeadlineMetric(
        "overlap_reindex_p95_ratio_best",
        "overlap",
        ("headline", "reindex_p95_ratio_best"),
        higher_is_better=False,
        description="best REINDEX-family during-transition p95 ratio",
    ),
    HeadlineMetric(
        "cluster_throughput_scaling",
        "cluster",
        ("headline", "throughput_scaling"),
        higher_is_better=True,
        description="k-shard staggered cluster qps over the single index",
    ),
    HeadlineMetric(
        "cluster_staggered_p95_ratio",
        "cluster",
        ("headline", "staggered_p95_ratio"),
        higher_is_better=False,
        description="staggered/lockstep during-transition p95 at k_max",
    ),
    HeadlineMetric(
        "chaos_recovery_makespan",
        "chaos",
        ("headline", "recovery_makespan_seconds"),
        higher_is_better=False,
        description="worst per-day replica-rebuild span in the chaos soak",
    ),
    HeadlineMetric(
        "throughput_recovery_makespan",
        "elastic",
        ("headline", "throughput_recovery_makespan"),
        higher_is_better=False,
        description="spike-to-recovery makespan of the elastic reshard bench",
    ),
    HeadlineMetric(
        "frontend_knee_qps",
        "frontend",
        ("headline", "frontend_knee_qps"),
        higher_is_better=True,
        description="sustained admitted qps at the frontend saturation knee",
        # Wall-clock, machine-dependent: gate it only on a baseline
        # adopted on the same machine class (like the wall-clock probe
        # speedup, it is not in the committed repo baseline).
        optional=True,
    ),
    HeadlineMetric(
        "advisor_drift_advantage",
        "advisor",
        ("headline", "advisor_drift_advantage"),
        higher_is_better=True,
        description="best-static/advisor cumulative cost over the drift",
    ),
    HeadlineMetric(
        "rolling_restart_lost_requests",
        "resilience",
        ("headline", "rolling_restart_lost_requests"),
        higher_is_better=False,
        description="requests lost while rolling-restarting the fleet",
        # Zero-loss is a correctness claim, not a perf trajectory: the
        # gate is equality with the committed 0.0, on any machine.
        exact=True,
    ),
    HeadlineMetric(
        "hedge_tail_ratio",
        "resilience",
        ("headline", "hedge_tail_ratio"),
        higher_is_better=False,
        description="hedged/unhedged p99 under an injected slow frontend",
        # A ratio of two wall-clock latencies from the same run — far
        # more portable than a raw latency, but still machine-shaped;
        # gate it only on a baseline adopted on the same machine class.
        optional=True,
    ),
)


@dataclass(frozen=True)
class RegressionRow:
    """Outcome of checking one headline metric against the baseline."""

    metric: str
    #: ``None`` for a metric the baseline has not adopted yet (``new``).
    baseline: float | None
    current: float | None
    #: Signed relative change where positive means *better* (whatever the
    #: metric's direction), e.g. +0.10 = 10% improvement.
    change: float | None
    regressed: bool
    skipped: bool = False
    #: The metric is measured by a provided report but absent from the
    #: baseline — informational, never failing; adopt it with
    #: ``repro bench-check --update``.
    new: bool = False
    #: The baseline carries a metric no benchmark measures anymore — a
    #: gate that silently vanished.  Always failing: either restore the
    #: metric or retire it deliberately with ``repro bench-check
    #: --update`` (the mirror of ``new``).
    dropped: bool = False


def extract_headlines(report: dict[str, Any]) -> dict[str, float]:
    """Return the headline metrics found in one benchmark report."""
    bench = report.get("bench")
    out: dict[str, float] = {}
    for metric in HEADLINE_METRICS:
        if metric.bench != bench:
            continue
        value = metric.extract(report)
        if value is not None:
            out[metric.name] = value
    return out


def build_baseline(
    reports: list[dict[str, Any]],
    previous: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Return a baseline document from fresh reports.

    Metrics for benchmarks not present in ``reports`` are carried over
    from ``previous`` so a partial refresh never silently drops a gate.
    Names the registry no longer defines are pruned — ``--update`` is
    the deliberate way to retire a DROPPED gate.
    """
    metrics: dict[str, float] = {}
    if previous is not None:
        metrics.update(previous.get("metrics", {}))
        for name in list(metrics):
            if _metric_by_name(name) is None:
                metrics.pop(name)
    for report in reports:
        metrics.update(extract_headlines(report))
    return {
        "bench": "baseline",
        "schema_version": SCHEMA_VERSION,
        "threshold": DEFAULT_THRESHOLD,
        "metrics": metrics,
    }


def _metric_by_name(name: str) -> HeadlineMetric | None:
    for metric in HEADLINE_METRICS:
        if metric.name == name:
            return metric
    return None


def compare(
    baseline: dict[str, Any],
    reports: list[dict[str, Any]],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[RegressionRow]:
    """Check fresh reports against ``baseline``; return one row per metric.

    Baseline metrics whose benchmark has no report in ``reports`` are
    marked *skipped* (each CI smoke job checks only its own artifact);
    a metric whose benchmark IS present but which cannot be extracted
    counts as regressed — a gate that silently vanishes is not passing —
    unless the metric is *optional* (flag-gated sections like the
    wall-clock timings), in which case absence skips it.
    A measured metric the baseline has not adopted yet becomes a
    non-failing *NEW* row pointing at ``repro bench-check --update``
    (first run of a fresh benchmark against an older baseline).
    A baseline metric the registry no longer defines at all becomes a
    failing *DROPPED* row — a vanished gate must be retired on purpose
    (``--update`` prunes it), never silently.
    """
    current: dict[str, float] = {}
    provided_benches = {r.get("bench") for r in reports}
    for report in reports:
        current.update(extract_headlines(report))
    rows: list[RegressionRow] = []
    baseline_metrics = baseline.get("metrics", {})
    for name, base_value in sorted(baseline_metrics.items()):
        metric = _metric_by_name(name)
        if metric is None:
            # The baseline gates a metric the registry no longer
            # defines: the gate vanished out from under the baseline.
            # Fail loudly instead of skipping (mirror of NEW rows).
            rows.append(
                RegressionRow(
                    name, base_value, None, None, True, dropped=True
                )
            )
            continue
        if metric.bench not in provided_benches:
            rows.append(
                RegressionRow(name, base_value, None, None, False, skipped=True)
            )
            continue
        value = current.get(name)
        if value is None and metric.optional:
            # Optional headline not produced by this run: skip rather
            # than fail the gate.
            rows.append(
                RegressionRow(name, base_value, None, None, False, skipped=True)
            )
            continue
        if metric.exact:
            # Equality gate: no percentage allowance, and a 0.0
            # baseline (zero lost requests) is the expected case the
            # relative math below cannot express.
            if value is None:
                rows.append(
                    RegressionRow(name, base_value, value, None, True)
                )
                continue
            regressed = abs(value - base_value) > 1e-9
            rows.append(
                RegressionRow(
                    name, base_value, value,
                    0.0 if not regressed else None, regressed,
                )
            )
            continue
        if value is None or base_value <= 0:
            rows.append(RegressionRow(name, base_value, value, None, True))
            continue
        if metric.higher_is_better:
            change = value / base_value - 1.0
            regressed = value < base_value * (1.0 - threshold)
        else:
            change = 1.0 - value / base_value
            regressed = value > base_value * (1.0 + threshold)
        rows.append(RegressionRow(name, base_value, value, change, regressed))
    for name, value in sorted(current.items()):
        if name not in baseline_metrics:
            rows.append(
                RegressionRow(name, None, value, None, False, new=True)
            )
    return rows


def render_diff_table(rows: list[RegressionRow], threshold: float) -> str:
    """Return the human-readable gate outcome for CI logs."""
    lines = [
        f"{'metric':<32} {'baseline':>10} {'current':>10} "
        f"{'change':>8} {'gate':>8}",
    ]
    for row in rows:
        baseline = (
            f"{row.baseline:.4f}" if row.baseline is not None else "-"
        )
        if row.skipped:
            lines.append(
                f"{row.metric:<32} {baseline:>10} {'-':>10} "
                f"{'-':>8} {'skipped':>8}"
            )
            continue
        current = f"{row.current:.4f}" if row.current is not None else "-"
        change = f"{row.change:+.1%}" if row.change is not None else "-"
        verdict = (
            "DROPPED"
            if row.dropped
            else "NEW" if row.new else "FAIL" if row.regressed else "ok"
        )
        lines.append(
            f"{row.metric:<32} {baseline:>10} {current:>10} "
            f"{change:>8} {verdict:>8}"
        )
    checked = [r for r in rows if not r.skipped and not r.new]
    failed = [r for r in checked if r.regressed and not r.dropped]
    gone = [r for r in rows if r.dropped]
    fresh = [r for r in rows if r.new]
    lines.append("")
    if gone:
        names = ", ".join(r.metric for r in gone)
        lines.append(
            f"DROPPED: baseline metric(s) {names} no longer measured by "
            f"any benchmark — restore the metric, or retire it "
            f"deliberately with `repro bench-check --update`"
        )
    if failed:
        names = ", ".join(r.metric for r in failed)
        lines.append(
            f"REGRESSION: {names} worse than baseline by more than "
            f"{threshold:.0%}"
        )
    elif not gone:
        lines.append(
            f"gate ok: {len(checked)} metric(s) within {threshold:.0%} "
            f"of baseline ({len(rows) - len(checked) - len(fresh)} skipped)"
        )
    if fresh:
        names = ", ".join(r.metric for r in fresh)
        lines.append(
            f"new metric(s) not in baseline: {names} — run "
            f"`repro bench-check --update` to adopt them into the gate"
        )
    return "\n".join(lines)


def load_report(path: str | Path) -> dict[str, Any]:
    """Read one JSON artifact (a bench report or the baseline)."""
    return json.loads(Path(path).read_text(encoding="utf-8"))

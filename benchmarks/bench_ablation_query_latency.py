"""Ablation: query tail latency under concurrent maintenance.

Simulates a day of SCAM probe traffic against the maintenance timeline for
each (scheme, technique): in-place updating produces maintenance-induced
latency spikes (queries wait for the index being mutated), shadowing keeps
every percentile at pure service time, and REINDEX never blocks even in
place because it only ever builds fresh indexes.
"""

from repro.analysis.daycount import run_reports
from repro.analysis.parameters import SCAM_PARAMETERS
from repro.bench.tables import render_rows
from repro.core.schemes import ALL_SCHEMES
from repro.index.updates import UpdateTechnique
from repro.sim.latency import simulate_query_latency

N = 2
QUERIES = 5_000


def compute_rows():
    rows = []
    for scheme_cls in ALL_SCHEMES:
        if scheme_cls.min_indexes > N:
            continue
        for technique in (
            UpdateTechnique.IN_PLACE,
            UpdateTechnique.SIMPLE_SHADOW,
        ):
            scheme = scheme_cls(SCAM_PARAMETERS.window, N)
            reports = run_reports(
                scheme,
                SCAM_PARAMETERS,
                technique,
                transitions=SCAM_PARAMETERS.window,
            )
            stats = simulate_query_latency(
                reports[-1],
                SCAM_PARAMETERS,
                technique,
                queries_per_day=QUERIES,
                seed=13,
            )
            rows.append(
                [
                    scheme_cls.name,
                    technique.value,
                    stats.p50_s * 1e3,
                    stats.p95_s * 1e3,
                    stats.max_s,
                    f"{stats.blocked_fraction:.1%}",
                ]
            )
    return rows


def test_ablation_query_latency(report):
    rows = compute_rows()
    report(
        "ablation_query_latency",
        render_rows(
            "Ablation: daily probe latency under maintenance "
            f"(SCAM, W=7, n={N}, {QUERIES} probes/day)",
            [
                "scheme",
                "technique",
                "p50 (ms)",
                "p95 (ms)",
                "max (s)",
                "blocked",
            ],
            rows,
        ),
    )
    by_key = {(r[0], r[1]): r for r in rows}
    # Shadowing: zero blocked queries everywhere.
    for (scheme, technique), row in by_key.items():
        if technique == "simple_shadow":
            assert row[5] == "0.0%", (scheme, technique)
    # DEL in place blocks a visible fraction with a huge max latency.
    del_row = by_key[("DEL", "in_place")]
    assert del_row[5] != "0.0%"
    assert del_row[4] > 100  # waiting out a multi-thousand-second delete

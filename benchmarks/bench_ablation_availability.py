"""Ablation: query availability by scheme and update technique.

Quantifies Section 2.1's qualitative trade-off: in-place updating mutates
queryable indexes (queries must block or read garbage), shadowing never
does; staleness (time until a new day is queryable) is the transition time.
"""

from repro.analysis.availability import availability
from repro.analysis.parameters import SCAM_PARAMETERS
from repro.bench.tables import render_rows
from repro.core.schemes import ALL_SCHEMES
from repro.index.updates import UpdateTechnique

N = 2


def compute_rows():
    rows = []
    for scheme_cls in ALL_SCHEMES:
        if scheme_cls.min_indexes > N:
            continue
        for technique in UpdateTechnique:
            rep = availability(
                lambda c=scheme_cls: c(SCAM_PARAMETERS.window, N),
                SCAM_PARAMETERS,
                technique,
            )
            rows.append(
                [
                    rep.scheme,
                    rep.technique,
                    rep.staleness_s,
                    rep.blocked_s,
                    "yes" if rep.needs_concurrency_control else "no",
                ]
            )
    return rows


def test_ablation_availability(report):
    rows = compute_rows()
    report(
        "ablation_availability",
        render_rows(
            "Ablation: availability under maintenance (SCAM, W=7, n=2)",
            [
                "scheme",
                "technique",
                "staleness (s)",
                "blocked (s/day)",
                "needs CC",
            ],
            rows,
        ),
    )
    # Shadowing never blocks; only in-place rows may.
    for row in rows:
        if row[1] != "in_place":
            assert row[3] == 0.0

"""Extension: the (W, n) design plane for SCAM-like workloads.

The paper varies one axis at a time (Figures 5 and 9); this study sweeps
both and reports, per cell, the best scheme and its total daily work — the
full design map an operator would actually consult.  The Section-6 shape
holds across the plane: rebuild-based schemes own the small-W /
moderate-n corner, incremental schemes take over as W grows.
"""

from repro.analysis.daycount import steady_state
from repro.analysis.parameters import SCAM_PARAMETERS
from repro.bench.tables import render_rows
from repro.core.schemes import ALL_SCHEMES
from repro.index.updates import UpdateTechnique

WINDOWS = (4, 7, 14, 28)
N_VALUES = (1, 2, 4, 8)


def best_for(window: int, n: int):
    best = None
    for scheme_cls in ALL_SCHEMES:
        if not scheme_cls.min_indexes <= n <= window:
            continue
        avg = steady_state(
            lambda: scheme_cls(window, n),
            SCAM_PARAMETERS.with_window(window),
            UpdateTechnique.SIMPLE_SHADOW,
            measure_cycles=1,
        )
        if best is None or avg.total_work_s < best[1]:
            best = (scheme_cls.name, avg.total_work_s)
    return best


def compute_rows():
    rows = []
    for window in WINDOWS:
        for n in N_VALUES:
            if n > window:
                continue
            best = best_for(window, n)
            rows.append([window, n, best[0], best[1]])
    return rows


def test_extension_wn_heatmap(report):
    rows = compute_rows()
    report(
        "extension_wn_heatmap",
        render_rows(
            "Extension: best scheme per (W, n) cell "
            "(SCAM workload, simple shadowing)",
            ["W", "n", "best scheme", "work (s/day)"],
            rows,
        ),
    )
    by_cell = {(r[0], r[1]): r for r in rows}
    # Figure 9's message in heatmap form: at n = 4 the winner shifts from a
    # rebuild-family scheme at small W toward an incremental/lazy scheme as
    # W grows.
    small_w = by_cell[(4, 4)][2]
    large_w = by_cell[(28, 4)][2]
    assert small_w in ("REINDEX", "REINDEX+", "WATA*", "RATA*")
    assert large_w in ("DEL", "WATA*", "RATA*")

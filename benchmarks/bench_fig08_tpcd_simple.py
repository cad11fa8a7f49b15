"""Figure 8: total daily work for TPC-D vs n, simple shadowing (W = 100).

Paper shape: everything costs more than under packed shadowing (Figure 7);
WATA wins once n is large enough to shrink its soft-window residue, beating
DEL by thousands of seconds per day (it never pays ``Del``) — the paper's
"use WATA (n = 10) on a legacy system" recommendation.
"""

from repro.bench.tables import render_curves
from repro.casestudies import tpcd


def test_figure8_tpcd_simple(report):
    curves = tpcd.figure8_simple()
    report(
        "fig08_tpcd_simple",
        render_curves(
            "Figure 8: TPC-D average total work per day vs n (W=100, simple shadowing)",
            "n",
            tpcd.DEFAULT_N_VALUES,
            curves,
            unit="seconds",
        ),
    )

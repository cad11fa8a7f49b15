"""Figure 7: total daily work for TPC-D vs n, packed shadowing (W = 100).

Ten daily analytical queries scan every constituent index.  Paper shape:
DEL (n = 1) and WATA (n = 2) best, REINDEX catastrophically worst (daily
100/n-day rebuilds of 600 MB days).
"""

from repro.bench.tables import render_curves
from repro.casestudies import tpcd


def test_figure7_tpcd_packed(report):
    curves = tpcd.figure7_packed()
    report(
        "fig07_tpcd_packed",
        render_curves(
            "Figure 7: TPC-D average total work per day vs n (W=100, packed shadowing)",
            "n",
            tpcd.DEFAULT_N_VALUES,
            curves,
            unit="seconds",
        ),
    )

"""Figure 9: SCAM total daily work as the window grows (n = 4).

Paper shape: the reindexing family's work grows O(W/n) with the window,
while DEL / WATA / RATA index a constant number of days per day and stay
nearly flat — the paper's "plan ahead if you may ever widen the window".
"""

from repro.bench.tables import render_curves
from repro.casestudies import scam

WINDOWS = (4, 7, 14, 21, 28, 35, 42)


def test_figure9_window_scaling(report):
    curves = scam.figure9_window_scaling(windows=WINDOWS)
    report(
        "fig09_window_scaling",
        render_curves(
            "Figure 9: SCAM average total work per day vs window W (n=4)",
            "W",
            WINDOWS,
            curves,
            unit="seconds",
        ),
    )

"""Figure 9: SCAM total daily work as the window grows (n = 4).

Paper shape: the reindexing family's work grows O(W/n) with the window,
while DEL / WATA / RATA index a constant number of days per day and stay
nearly flat — the paper's "plan ahead if you may ever widen the window".

Reproduced: every REINDEX variant grows with every step of W, REINDEX
linearly (each step's slope within 5 % of the W = 7..42 mean) and over
threefold across the sweep; DEL moves by under 10 %.  Deviation
(EXPERIMENTS.md, Figure 9): 9a, WATA* and RATA* are not flat at small W
(+20 % and +50 % from W = 4 to 14); they rise by less with every step,
under 15 % from W = 14 to 42, while REINDEX doubles.
"""

from statistics import fmean

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
    for name in ("REINDEX", "REINDEX+", "REINDEX++"):
        work = curves[name]
        assert all(a < b for a, b in zip(work, work[1:])), name
        assert work[-1] > 3 * work[0], name
    reindex = curves["REINDEX"]
    slopes = [
        (b - a) / (v - u)
        for u, v, a, b in zip(WINDOWS[1:], WINDOWS[2:], reindex[1:], reindex[2:])
    ]
    assert all(abs(s / fmean(slopes) - 1) < 0.05 for s in slopes)
    dele = curves["DEL"]
    assert max(dele) < 1.1 * min(dele)
    # The deviation, pinned so a change to it is seen.
    at14 = WINDOWS.index(14)
    for name, early in (("WATA*", 1.19), ("RATA*", 1.49)):  # 9a
        work = curves[name]
        steps = [b - a for a, b in zip(work[1:], work[2:])]
        assert all(a > b > 0 for a, b in zip(steps, steps[1:])), name
        assert work[at14] > early * work[0], name
        assert work[-1] < 1.15 * work[at14], name
    assert reindex[-1] > 2 * reindex[at14]

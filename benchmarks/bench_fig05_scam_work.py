"""Figure 5: total daily work for SCAM vs n (W = 7).

Paper shape: REINDEX poor at small n (daily W/n-day rebuilds) but winning
from n ≈ 4; DEL/WATA/RATA stable, creeping up with n as probes multiply.
The paper's recommendation — REINDEX with n = 4 — falls out of this curve
family plus Figure 4's response-time consideration.
"""

from repro.bench.tables import render_curves
from repro.casestudies import scam


def test_figure5_scam_work(report):
    curves = scam.figure5_work()
    report(
        "fig05_scam_work",
        render_curves(
            "Figure 5: SCAM average total work per day vs n (W=7, simple shadowing)",
            "n",
            scam.DEFAULT_N_VALUES,
            curves,
            unit="seconds",
        ),
    )

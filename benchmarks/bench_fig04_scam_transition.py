"""Figure 4: SCAM transition time vs n (W = 7).

Paper shape: DEL / WATA / RATA / REINDEX++ flat (one incremental day each);
REINDEX falls from W·Build toward Build as n grows, crossing DEL near n = 4.
"""

from repro.bench.tables import render_curves
from repro.casestudies import scam


def test_figure4_scam_transition(report):
    curves = scam.figure4_transition()
    report(
        "fig04_scam_transition",
        render_curves(
            "Figure 4: SCAM transition time vs n (W=7, simple shadowing)",
            "n",
            scam.DEFAULT_N_VALUES,
            curves,
            unit="seconds",
        ),
    )

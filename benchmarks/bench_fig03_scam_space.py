"""Figure 3: average space used by SCAM during the day, vs n (W = 7).

Paper shape: REINDEX minimal (packed, no temporaries); every scheme's space
falls as n grows (smaller shadows, smaller temporaries, tighter residue).
"""

from repro.bench.tables import render_curves
from repro.casestudies import scam


def test_figure3_scam_space(report):
    curves = scam.figure3_space()
    report(
        "fig03_scam_space",
        render_curves(
            "Figure 3: SCAM average space during day vs n (W=7, simple shadowing)",
            "n",
            scam.DEFAULT_N_VALUES,
            curves,
            unit="MB",
            scale=1_000_000,
        ),
    )

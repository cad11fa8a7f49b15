"""Figure 6: total daily work for a Web search engine vs n (W = 35).

Packed shadowing; 340,000 daily probes dominate.  Paper shape: the REINDEX
family — SCAM's winner — is now the worst; DEL with n = 1 is the paper's
recommendation (lowest work AND best per-query response time).
"""

from repro.bench.tables import render_curves
from repro.casestudies import wse


def test_figure6_wse_work(report):
    curves = wse.figure6_work()
    report(
        "fig06_wse_work",
        render_curves(
            "Figure 6: WSE average total work per day vs n (W=35, packed shadowing)",
            "n",
            wse.DEFAULT_N_VALUES,
            curves,
            unit="seconds",
        ),
    )

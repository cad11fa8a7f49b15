"""Figure 10: SCAM total daily work as data volume scales (W = 14, n = 4).

Two variants (see DESIGN.md / EXPERIMENTS.md):

* analytic — Table-12 constants scaled linearly with SF.  Add/Build stays
  fixed, so WATA keeps its lead; the paper's crossover cannot appear here.
* measured — Build/Add/S' re-measured on the simulated substrate at each
  SF with a Heaps-law vocabulary, replicating the authors' procedure of
  re-running their calibration as volume grows.
"""

from repro.bench.tables import render_curves
from repro.casestudies import scam

SCALE_FACTORS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)


def test_figure10_analytic(report):
    curves = scam.figure10_scale_factor(scale_factors=SCALE_FACTORS)
    report(
        "fig10_scale_factor_analytic",
        render_curves(
            "Figure 10 (analytic): SCAM work per day vs scale factor (W=14, n=4)",
            "SF",
            SCALE_FACTORS,
            curves,
            unit="seconds",
        ),
    )


def test_figure10_measured(report):
    curves = scam.figure10_measured(scale_factors=SCALE_FACTORS)
    report(
        "fig10_scale_factor_measured",
        render_curves(
            "Figure 10 (substrate-measured constants): SCAM work per day vs SF",
            "SF",
            SCALE_FACTORS,
            curves,
            unit="seconds",
        ),
    )


def test_figure10_memory_pressured(report):
    """Third variant: constants re-measured under a buffer pool sized to
    the SF = 1 working set — the regime that reproduces the paper's
    REINDEX-overtakes crossover (here between SF = 2 and SF = 3)."""
    curves = scam.figure10_memory_pressured(
        scale_factors=SCALE_FACTORS, memory_ratio=1.0
    )
    report(
        "fig10_scale_factor_memory",
        render_curves(
            "Figure 10 (memory-pressured constants, pool = SF1 working set)",
            "SF",
            SCALE_FACTORS,
            curves,
            unit="seconds",
        ),
    )

"""Table 10: daily maintenance work under simple shadowing.

Per scheme and n: pre-computation and transition seconds per day, closed
form beside the exact day-count run (SCAM parameters, W = 7).

Asserted: every cell with a closed form equals the executor to float
rounding.  Deviation (EXPERIMENTS.md, "Analytic tables"): 10a, REINDEX++
and RATA* precomputation (ladder upkeep) has no closed form; the
executor's value stands alone, positive below n = W and zero at n = W.
"""

import pytest

from repro.analysis.daycount import steady_state
from repro.analysis.formulas import table10_maintenance
from repro.analysis.parameters import SCAM_PARAMETERS
from repro.bench.tables import render_rows
from repro.core.schemes import ALL_SCHEMES
from repro.index.updates import UpdateTechnique

N_VALUES = (1, 2, 4, 7)
W = SCAM_PARAMETERS.window

#: Where a closed form exists, it agrees with the executor this well.
EXACT = 1e-9


def compute_rows():
    rows = []
    for scheme_cls in ALL_SCHEMES:
        for n in N_VALUES:
            if not scheme_cls.min_indexes <= n <= SCAM_PARAMETERS.window:
                continue
            formula = table10_maintenance(scheme_cls.name, SCAM_PARAMETERS, n)
            exact = steady_state(
                lambda c=scheme_cls, k=n: c(SCAM_PARAMETERS.window, k),
                SCAM_PARAMETERS,
                UpdateTechnique.SIMPLE_SHADOW,
                measure_cycles=3,
            )
            rows.append(
                [
                    scheme_cls.name,
                    n,
                    formula.precompute_s,
                    exact.precompute_s,
                    formula.transition_s,
                    exact.transition_s,
                ]
            )
    return rows


def test_table10_maintenance(report):
    rows = compute_rows()
    report(
        "table10_maintenance",
        render_rows(
            "Table 10: maintenance per day, simple shadowing (SCAM, W=7, seconds)",
            [
                "scheme",
                "n",
                "formula pre",
                "exact pre",
                "formula trans",
                "exact trans",
            ],
            rows,
        ),
    )
    cells = {(row[0], row[1]): row[2:] for row in rows}
    for (scheme, n), (pre, exact_pre, trans, exact_trans) in cells.items():
        for formula, exact in ((pre, exact_pre), (trans, exact_trans)):
            if formula is not None:
                assert exact == pytest.approx(formula, rel=EXACT), (scheme, n)
    # The deviation, pinned so a change to it is seen (10a).
    for (scheme, n), (pre, exact_pre, trans, _) in cells.items():
        ladder = scheme in ("REINDEX++", "RATA*")
        assert (pre is None) == ladder and trans is not None, (scheme, n)
        if ladder:
            assert (exact_pre > 0) == (n < W), (scheme, n)

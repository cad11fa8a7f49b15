"""Table 8: space utilisation of wave indexes under simple shadowing.

Emits, for each scheme and several n, the closed-form cells alongside the
exact day-count executor's measurements (SCAM parameters, W = 7).

Asserted: DEL's and REINDEX's average operational space is the closed
form to float rounding at every n; every executor transition extra is
at most the closed-form maximum, and equal to it for DEL and REINDEX at
n = 1 and n = W.  Deviations (EXPERIMENTS.md, "Analytic tables"): 8a, at
n = W REINDEX+ and WATA* hold REINDEX's W·S, not W·S'; 8b, below n = W
their executor space is under the closed form, by less than 5 %; 8c,
REINDEX++'s transition extra is not zero; 8d, REINDEX++ and RATA* have
no closed-form average.
"""

import pytest

from repro.analysis.daycount import steady_state
from repro.analysis.formulas import table8_space
from repro.analysis.parameters import SCAM_PARAMETERS
from repro.bench.tables import render_rows
from repro.core.schemes import ALL_SCHEMES
from repro.index.updates import UpdateTechnique

MB = 1_000_000
N_VALUES = (1, 2, 4, 7)
W = SCAM_PARAMETERS.window
#: REINDEX's packed day, S, and the window of it REINDEX holds.
S_MB = SCAM_PARAMETERS.application.s_bytes / MB

#: Where a closed form is exact, it agrees with the executor this well.
EXACT = 1e-9
#: 8b: how far under the closed form REINDEX+ and WATA* may sit.
APPROXIMATE = 0.05


def compute_rows():
    rows = []
    for scheme_cls in ALL_SCHEMES:
        for n in N_VALUES:
            if not scheme_cls.min_indexes <= n <= SCAM_PARAMETERS.window:
                continue
            formula = table8_space(scheme_cls.name, SCAM_PARAMETERS, n)
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
                    None if formula.avg_operation is None
                    else formula.avg_operation / MB,
                    exact.steady_bytes / MB,
                    None if formula.max_transition_extra is None
                    else formula.max_transition_extra / MB,
                    (exact.peak_bytes - exact.steady_bytes) / MB,
                ]
            )
    return rows


def test_table8_space(report):
    rows = compute_rows()
    report(
        "table8_space",
        render_rows(
            "Table 8: space utilisation, simple shadowing (SCAM, W=7, MB)",
            [
                "scheme",
                "n",
                "formula avg op",
                "exact avg op",
                "formula max extra",
                "exact avg extra",
            ],
            rows,
        ),
    )
    cells = {(row[0], row[1]): row[2:] for row in rows}
    for (scheme, n), (avg, exact_avg, max_extra, exact_extra) in cells.items():
        if scheme in ("DEL", "REINDEX"):
            assert exact_avg == pytest.approx(avg, rel=EXACT), (scheme, n)
            if n in (1, W):
                assert exact_extra == pytest.approx(max_extra, rel=EXACT)
        if scheme != "REINDEX++":
            assert exact_extra <= max_extra * (1 + EXACT), (scheme, n)
    # The deviations, pinned so a change to them is seen.
    for scheme in ("REINDEX+", "WATA*"):
        avg, exact_avg = cells[(scheme, W)][:2]  # 8a
        assert exact_avg == pytest.approx(W * S_MB, rel=EXACT) and exact_avg < avg
        for n in (n for n in N_VALUES if (scheme, n) in cells and n < W):  # 8b
            avg, exact_avg = cells[(scheme, n)][:2]
            assert avg * (1 - APPROXIMATE) < exact_avg < avg, (scheme, n)
    extras = [cells[("REINDEX++", n)] for n in N_VALUES]  # 8c
    assert all(max_extra == 0.0 for _, _, max_extra, _ in extras)
    assert [round(e[3], 1) for e in extras] == [232.0, 108.8, 88.0, 78.4]
    for (scheme, n), (avg, *_) in cells.items():  # 8d
        assert (avg is None) == (scheme in ("REINDEX++", "RATA*")), (scheme, n)

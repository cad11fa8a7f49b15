"""Table 8: space utilisation of wave indexes under simple shadowing.

Emits, for each scheme and several n, the closed-form cells alongside the
exact day-count executor's measurements (SCAM parameters, W = 7).
"""

from repro.analysis.daycount import steady_state
from repro.analysis.formulas import table8_space
from repro.analysis.parameters import SCAM_PARAMETERS
from repro.bench.tables import render_rows
from repro.core.schemes import ALL_SCHEMES
from repro.index.updates import UpdateTechnique

MB = 1_000_000
N_VALUES = (1, 2, 4, 7)


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

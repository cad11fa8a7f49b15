"""Table 11: daily maintenance work under packed shadowing.

Same layout as the Table 10 bench, with the packed-shadow technique: smart
copies (SMCP) fold deletions in, and incremental inserts cost Build.
"""

from repro.analysis.daycount import steady_state
from repro.analysis.formulas import table11_maintenance
from repro.analysis.parameters import SCAM_PARAMETERS
from repro.bench.tables import render_rows
from repro.core.schemes import ALL_SCHEMES
from repro.index.updates import UpdateTechnique

N_VALUES = (1, 2, 4, 7)


def compute_rows():
    rows = []
    for scheme_cls in ALL_SCHEMES:
        for n in N_VALUES:
            if not scheme_cls.min_indexes <= n <= SCAM_PARAMETERS.window:
                continue
            formula = table11_maintenance(scheme_cls.name, SCAM_PARAMETERS, n)
            exact = steady_state(
                lambda c=scheme_cls, k=n: c(SCAM_PARAMETERS.window, k),
                SCAM_PARAMETERS,
                UpdateTechnique.PACKED_SHADOW,
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


def test_table11_packed(report):
    rows = compute_rows()
    report(
        "table11_packed",
        render_rows(
            "Table 11: maintenance per day, packed shadowing (SCAM, W=7, seconds)",
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

"""Extension: which cost parameter dominates each case study?

Elasticities of total daily work with respect to every Table-12 constant,
for each scenario's recommended configuration.  Formalises Section 6's
narrative: the WSE lives and dies by probe volume and seek time; TPC-D by
scan bandwidth; SCAM by the indexing constants.
"""

from repro.analysis.parameters import (
    SCAM_PARAMETERS,
    TPCD_PARAMETERS,
    WSE_PARAMETERS,
)
from repro.analysis.sensitivity import PARAMETERS, work_elasticities
from repro.bench.tables import render_rows
from repro.core.schemes import DelScheme, ReindexScheme, WataStarScheme
from repro.index.updates import UpdateTechnique

CONFIGS = [
    (
        "SCAM / REINDEX n=4",
        SCAM_PARAMETERS,
        lambda p: ReindexScheme(p.window, 4),
        UpdateTechnique.SIMPLE_SHADOW,
    ),
    (
        "WSE / DEL n=1",
        WSE_PARAMETERS,
        lambda p: DelScheme(p.window, 1),
        UpdateTechnique.PACKED_SHADOW,
    ),
    (
        "TPC-D / WATA* n=10",
        TPCD_PARAMETERS,
        lambda p: WataStarScheme(p.window, 10),
        UpdateTechnique.SIMPLE_SHADOW,
    ),
]


def compute_rows():
    rows = []
    for label, params, factory, technique in CONFIGS:
        el = work_elasticities(factory, params, technique)
        rows.append([label] + [f"{el[name]:+.3f}" for name in PARAMETERS])
    return rows


def test_extension_sensitivity(report):
    rows = compute_rows()
    report(
        "extension_sensitivity",
        render_rows(
            "Extension: work elasticity per Table-12 parameter "
            "(recommended configurations)",
            ["configuration"] + list(PARAMETERS),
            rows,
        ),
    )
    by_label = {r[0]: dict(zip(PARAMETERS, map(float, r[1:]))) for r in rows}
    # Section 6's narrative, quantified:
    wse = by_label["WSE / DEL n=1"]
    assert wse["probe_num"] > 0.5 and wse["seek"] > 0.5
    scam = by_label["SCAM / REINDEX n=4"]
    assert scam["build"] > 0.2
    tpcd = by_label["TPC-D / WATA* n=10"]
    assert tpcd["S_prime"] + abs(tpcd["trans"]) > 0.8  # scan bandwidth rules

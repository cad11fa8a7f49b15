"""Tables 1-7: the paper's example transition tables, regenerated.

Each benchmark runs a full symbolic trace of the scheme over the days the
paper tabulates and emits the rendered table for side-by-side comparison
with the publication.
"""

import pytest

from repro.core.schemes import (
    DelScheme,
    RataStarScheme,
    ReindexPlusPlusScheme,
    ReindexPlusScheme,
    ReindexScheme,
    WataStarScheme,
    WataTable4Scheme,
)
from repro.core.trace import format_trace, trace_scheme

CASES = [
    ("table1_del", DelScheme, 10, 2, 13, "Table 1: DEL (W=10, n=2)"),
    ("table2_reindex", ReindexScheme, 10, 2, 13, "Table 2: REINDEX (W=10, n=2)"),
    ("table3_wata", WataStarScheme, 10, 4, 14, "Table 3: WATA (W=10, n=4)"),
    (
        "table4_wata_variant",
        WataTable4Scheme,
        10,
        4,
        14,
        "Table 4: alternate WATA clustering (W=10, n=4)",
    ),
    (
        "table5_reindex_plus",
        ReindexPlusScheme,
        10,
        2,
        16,
        "Table 5: REINDEX+ (W=10, n=2)",
    ),
    (
        "table6_reindex_plus_plus",
        ReindexPlusPlusScheme,
        10,
        2,
        16,
        "Table 6: REINDEX++ (W=10, n=2)",
    ),
    ("table7_rata", RataStarScheme, 10, 4, 14, "Table 7: RATA (W=10, n=4)"),
]


@pytest.mark.parametrize(
    "name,scheme_cls,window,n,last_day,title",
    CASES,
    ids=[c[0] for c in CASES],
)
def test_transition_table(report, name, scheme_cls, window, n, last_day, title):
    rows = trace_scheme(scheme_cls(window, n), last_day)
    report(name, format_trace(rows, title=title))

"""Figure 8: total daily work for TPC-D vs n, simple shadowing (W = 100).

Paper shape: everything costs more than under packed shadowing (Figure 7);
WATA wins once n is large enough to shrink its soft-window residue, beating
DEL by thousands of seconds per day (it never pays ``Del``) — the paper's
"use WATA (n = 10) on a legacy system" recommendation, and RATA (n = 10)
when the window must be hard.

Reproduced: every scheme but REINDEX is dearer than under packed
shadowing at every n; WATA* gets cheaper with every step of n and is the
cheapest scheme from n = 4 on, 9,201 s a day below DEL at n = 10; RATA*
is the cheapest hard-window scheme from n = 6 on, n = 10 included.
Deviations (EXPERIMENTS.md, Figure 8): 8a, REINDEX costs exactly the
same under both techniques, since every constituent it makes is a
fresh Build; 8b, the WATA*-DEL gap keeps widening past n = 10, to
11,048 s at n = 20.
"""

from repro.bench.tables import figure
from repro.casestudies import tpcd
from repro.core.schemes import scheme_by_name


def test_figure8_tpcd_simple(report):
    text, curves = figure("fig8")
    report("fig08_tpcd_simple", text)
    n_values = tpcd.DEFAULT_N_VALUES
    packed = tpcd.figure7_packed()
    for name, work in curves.items():
        pairs = [(s, p) for s, p in zip(work, packed[name]) if s is not None]
        if name == "REINDEX":
            assert all(s == p for s, p in pairs)  # 8a
        else:
            assert all(s > p for s, p in pairs), name
    wata, dele = curves["WATA*"], curves["DEL"]
    defined = [w for w in wata if w is not None]
    assert all(a > b for a, b in zip(defined, defined[1:]))

    def cheapest(n, hard_only=False):
        i = n_values.index(n)
        return min(
            (work[i], name) for name, work in curves.items()
            if work[i] is not None
            and (not hard_only or scheme_by_name(name).hard_window)
        )[1]

    assert [cheapest(n) for n in n_values] == ["DEL", "DEL"] + ["WATA*"] * 6
    assert [cheapest(n, hard_only=True) for n in n_values] == (
        ["DEL"] * 3 + ["RATA*"] * 5
    )
    gap = [d - w for d, w in zip(dele, wata) if w is not None]
    at10 = n_values.index(10) - 1
    assert 9_000 < gap[at10] < 10_000
    assert all(a < b for a, b in zip(gap, gap[1:])) and gap[-1] > 11_000  # 8b

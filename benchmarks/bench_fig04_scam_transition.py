"""Figure 4: SCAM transition time vs n (W = 7).

Paper shape: DEL / WATA / RATA / REINDEX++ flat (one incremental day each);
REINDEX falls from W·Build toward Build as n grows, crossing DEL near n = 4.

Reproduced for DEL, REINDEX++ and REINDEX, which crosses DEL between
n = 3 and n = 4.  Deviation (EXPERIMENTS.md, Figure 4): WATA* and RATA*
are not flat; their transition falls with n, from 3,104 s at n = 2 to
Build at n = W, below DEL's Add throughout.
"""

from repro.bench.tables import figure
from repro.casestudies import scam


def test_figure4_scam_transition(report):
    text, curves = figure("fig4")
    report("fig04_scam_transition", text)
    n_values = scam.DEFAULT_N_VALUES
    window = n_values[-1]
    add = curves["DEL"][0]
    assert set(curves["DEL"]) == set(curves["REINDEX++"]) == {add}
    reindex = curves["REINDEX"]
    build = reindex[-1]
    assert reindex[0] == window * build
    assert all(a > b for a, b in zip(reindex, reindex[1:]))
    assert [n for n, t in zip(n_values, reindex) if t > add] == [1, 2, 3]
    # The deviation, pinned: WATA*/RATA* fall with n to Build, below Add.
    for name in ("WATA*", "RATA*"):
        defined = curves[name][1:]
        assert all(a > b for a, b in zip(defined, defined[1:])), name
        assert defined[0] < add and defined[-1] == build, name

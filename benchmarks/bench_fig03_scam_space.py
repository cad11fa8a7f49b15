"""Figure 3: average space used by SCAM during the day, vs n (W = 7).

Paper shape: REINDEX minimal (packed, no temporaries); every scheme's space
falls as n grows (smaller shadows, smaller temporaries, tighter residue).

Reproduced for every n < W.  Deviation (EXPERIMENTS.md, Figure 3): at
n = W, where every constituent is one day, WATA* and RATA* hold 392 MB
against REINDEX's 448 MB.
"""

from repro.bench.tables import figure
from repro.casestudies import scam


def test_figure3_scam_space(report):
    text, curves = figure("fig3")
    report("fig03_scam_space", text)
    n_values = scam.DEFAULT_N_VALUES
    for name, curve in curves.items():
        defined = [space for space in curve if space is not None]
        assert all(a > b for a, b in zip(defined, defined[1:])), name
    for i, n in enumerate(n_values[:-1]):
        others = [
            curve[i] for name, curve in curves.items()
            if name != "REINDEX" and curve[i] is not None
        ]
        assert curves["REINDEX"][i] < min(others), n
    # The deviation at n = W, pinned so a change to it is seen.
    assert curves["WATA*"][-1] == curves["RATA*"][-1] < curves["REINDEX"][-1]

"""Figure 5: total daily work for SCAM vs n (W = 7).

Paper shape: REINDEX poor at small n (daily W/n-day rebuilds) but winning
from n ≈ 4; DEL/WATA/RATA stable, creeping up with n as probes multiply.
The paper's recommendation — REINDEX with n = 4 — falls out of this curve
family plus Figure 4's response-time consideration.

Reproduced: REINDEX is dearest at n = 1 and above DEL there; DEL, WATA*
and RATA* creep up with n; among the hard-window schemes REINDEX is the
cheapest from n = 3 to n = W - 1.  Deviations (EXPERIMENTS.md, Figure
5): REINDEX already beats DEL at n = 2, not near 4; RATA* is below it at
n = 2; and the soft-window WATA* is never dearer than REINDEX, so REINDEX
never wins outright.
"""

from repro.bench.tables import figure
from repro.casestudies import scam
from repro.core.schemes import scheme_by_name


def test_figure5_scam_work(report):
    text, curves = figure("fig5")
    report("fig05_scam_work", text)
    n_values = scam.DEFAULT_N_VALUES
    reindex, dele = curves["REINDEX"], curves["DEL"]
    assert reindex[0] == max(reindex) and reindex[0] > dele[0]
    assert all(r < d for r, d in zip(reindex[1:], dele[1:]))
    for name in ("DEL", "WATA*", "RATA*"):
        defined = [work for work in curves[name] if work is not None]
        assert all(a < b for a, b in zip(defined, defined[1:])), name
    hard = [name for name in curves if scheme_by_name(name).hard_window]

    def cheapest_hard(n):
        i = n_values.index(n)
        return min((curves[name][i], name) for name in hard if curves[name][i])[1]

    assert [cheapest_hard(n) for n in n_values[2:-1]] == ["REINDEX"] * 4
    # The deviations, pinned so a change to them is seen.
    assert cheapest_hard(2) == "RATA*"
    assert all(w <= r for w, r in zip(curves["WATA*"][1:], reindex[1:]))

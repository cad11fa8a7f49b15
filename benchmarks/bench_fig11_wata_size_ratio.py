"""Figure 11: WATA*'s index-size ratio on 200 days of Usenet data (W = 7).

ratio = (max storage WATA* ever pins) / (max storage an eager scheme pins).
Paper: <= 1.6, ~1.24 at n = 4, decreasing with n; Theorem 3 bounds it by 2.
Runs on the synthetic Jun-Dec 1997 trace, plus the offline optimum for
n = 2 as the competitive-ratio reference point.

Reproduced: the ratio falls with every step of n, is 1 at n = W, at most
1.6 from n = 3 on and below the paper's 1.24 at n = 4; the size-capped
WATA never binds on this trace and matches WATA*; the offline optimum
for n = 2 is below WATA*'s and within 4 % of it.  Deviation
(EXPERIMENTS.md, Figure 11): 11a, n = 2 reads 1.8, above the paper's
1.6, still inside Theorem 3's 2.
"""

from repro.bench.tables import figure


def test_figure11_size_ratio(report):
    text, rows = figure("fig11")
    report("fig11_wata_size_ratio", text)
    *by_n, (_, opt, _, _) = rows
    n_values = [n for n, _, _, _ in by_n]
    assert n_values == [2, 3, 4, 5, 6, 7]
    wata = [float(ratio) for _, ratio, _, _ in by_n]
    assert [sized for _, _, sized, _ in by_n] == [ratio for _, ratio, _, _ in by_n]
    assert all(a > b for a, b in zip(wata, wata[1:]))
    assert wata[-1] == 1.0 and max(wata[1:]) <= 1.6
    assert 1.1 < wata[n_values.index(4)] < 1.24
    assert 0.96 * wata[0] < float(opt) < wata[0]
    assert 1.6 < wata[0] < 2.0  # 11a

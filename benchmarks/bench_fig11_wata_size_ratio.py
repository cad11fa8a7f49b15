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

from repro.bench.tables import render_rows
from repro.casestudies.sizing import (
    figure11_ratios,
    hard_window_sizes,
)
from repro.extensions.kleinberg import offline_optimal_plan
from repro.workloads.usenet import day_weights, june_december_1997_volume

WINDOW = 7
N_VALUES = (2, 3, 4, 5, 6, 7)


def compute_rows():
    from repro.core.schemes.wata_size import WataSizeAwareScheme

    weights = day_weights(june_december_1997_volume())
    eager_max = max(hard_window_sizes(weights, WINDOW, len(weights)))
    ratios = figure11_ratios(weights, window=WINDOW, n_values=N_VALUES)
    sized_ratios = figure11_ratios(
        weights,
        window=WINDOW,
        n_values=N_VALUES,
        scheme_factory=lambda w, n: WataSizeAwareScheme(
            w,
            n,
            max_window_size=eager_max,
            day_size=lambda d: weights[d - 1],
        ),
    )
    rows = [
        [n, f"{ratios[n]:.3f}", f"{sized_ratios[n]:.3f}", "2.000"]
        for n in N_VALUES
    ]
    opt = offline_optimal_plan(weights, WINDOW, 2)
    rows.append(["OPT(n=2)", f"{opt.max_size / eager_max:.3f}", None, None])
    return rows


def test_figure11_size_ratio(report):
    rows = compute_rows()
    report(
        "fig11_wata_size_ratio",
        render_rows(
            "Figure 11: index-size ratio vs n "
            "(W=7, 200-day synthetic Usenet trace)",
            ["n", "WATA* ratio", "WATA(size) ratio", "Theorem 3 bound"],
            rows,
        ),
    )
    *by_n, (_, opt, _, _) = rows
    wata = [float(ratio) for _, ratio, _, _ in by_n]
    assert [sized for _, _, sized, _ in by_n] == [ratio for _, ratio, _, _ in by_n]
    assert all(a > b for a, b in zip(wata, wata[1:]))
    assert wata[-1] == 1.0 and max(wata[1:]) <= 1.6
    assert 1.1 < wata[N_VALUES.index(4)] < 1.24
    assert 0.96 * wata[0] < float(opt) < wata[0]
    assert 1.6 < wata[0] < 2.0  # 11a

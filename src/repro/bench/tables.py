"""Rendering helpers for the benchmark harness.

The benches regenerate the paper's tables and figures as text: curve
families become aligned tables with one row per scheme, one column per
x-value.  Output goes both to stdout (visible with ``pytest -s``) and to
``benchmarks/out/<name>.txt`` so EXPERIMENTS.md can cite stable artifacts.
:func:`figure` renders each paper figure ``repro figure`` prints, the one
render its ``benchmarks/bench_fig*.py`` writes there.
"""

from __future__ import annotations

from importlib import import_module
from pathlib import Path
from typing import Any, Mapping, Sequence


def render_curves(
    title: str,
    x_label: str,
    xs: Sequence[float],
    curves: Mapping[str, Sequence[float | None]],
    *,
    unit: str = "",
    scale: float = 1.0,
    fmt: str = "{:,.0f}",
) -> str:
    """Render ``{series: ys}`` curves as an aligned text table.

    Args:
        scale: Divider applied to every y (e.g. 1e6 to print megabytes).
        fmt: Format applied to scaled values; ``None`` y-cells print ``-``.
    """
    header = [f"{x_label}\\scheme"] + [str(x) for x in xs]
    rows = [header]
    for name, ys in curves.items():
        cells = [name]
        for y in ys:
            cells.append("-" if y is None else fmt.format(y / scale))
        rows.append(cells)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [title + (f"  [{unit}]" if unit else "")]
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        )
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def render_rows(
    title: str,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Render generic rows under a header, aligned."""
    table = [[str(c) for c in header]]
    for row in rows:
        table.append(
            ["-" if c is None else (f"{c:,.1f}" if isinstance(c, float) else str(c)) for c in row]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = [title]
    for i, row in enumerate(table):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def emit(out_dir: Path, name: str, text: str) -> None:
    """Print ``text`` and persist it under ``out_dir/name.txt``."""
    print()
    print(text)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


#: Curve figure -> (title, case study, curve function, unit, scale).
_CURVE_FIGURES = {
    "fig3": ("Figure 3: SCAM average space during day vs n (W=7, simple shadowing)",
             "scam", "figure3_space", "MB", 1_000_000),
    "fig4": ("Figure 4: SCAM transition time vs n (W=7, simple shadowing)",
             "scam", "figure4_transition", "seconds", 1.0),
    "fig5": ("Figure 5: SCAM average total work per day vs n (W=7, simple shadowing)",
             "scam", "figure5_work", "seconds", 1.0),
    "fig6": ("Figure 6: WSE average total work per day vs n (W=35, packed shadowing)",
             "wse", "figure6_work", "seconds", 1.0),
    "fig7": ("Figure 7: TPC-D average total work per day vs n (W=100, packed shadowing)",
             "tpcd", "figure7_packed", "seconds", 1.0),
    "fig8": ("Figure 8: TPC-D average total work per day vs n (W=100, simple shadowing)",
             "tpcd", "figure8_simple", "seconds", 1.0),
}

#: The paper figures :func:`figure` renders.
FIGURES = (*_CURVE_FIGURES, "fig11")


def figure(name: str) -> tuple[str, Any]:
    """Return paper figure ``name`` (one of :data:`FIGURES`) rendered,
    and the data it was drawn from: ``{scheme: ys}`` curves over the
    case study's ``n`` values, or Figure 11's rows."""
    if name == "fig11":
        return _figure11()
    title, study, curve, unit, scale = _CURVE_FIGURES[name]
    module = import_module(f"..casestudies.{study}", __package__)
    curves = getattr(module, curve)()
    text = render_curves(
        title, "n", module.DEFAULT_N_VALUES, curves, unit=unit, scale=scale
    )
    return text, curves


def _figure11() -> tuple[str, list[list[Any]]]:
    """Figure 11: WATA*'s index-size ratio on 200 days of Usenet (W = 7).

    One row per ``n``: WATA*'s ratio, the size-capped WATA's and Theorem
    3's bound; then the offline optimum for ``n = 2``.
    """
    from ..casestudies.sizing import figure11_ratios, hard_window_sizes
    from ..core.schemes.wata_size import WataSizeAwareScheme
    from ..extensions.kleinberg import offline_optimal_plan
    from ..workloads.usenet import day_weights, june_december_1997_volume

    window = 7
    weights = day_weights(june_december_1997_volume())
    eager_max = max(hard_window_sizes(weights, window, len(weights)))
    ratios = figure11_ratios(weights, window=window)
    sized_ratios = figure11_ratios(
        weights,
        window=window,
        scheme_factory=lambda w, n: WataSizeAwareScheme(
            w, n, max_window_size=eager_max, day_size=lambda d: weights[d - 1]
        ),
    )
    rows: list[list[Any]] = [
        [n, f"{ratio:.3f}", f"{sized_ratios[n]:.3f}", "2.000"]
        for n, ratio in ratios.items()
    ]
    opt = offline_optimal_plan(weights, window, 2)
    rows.append(["OPT(n=2)", f"{opt.max_size / eager_max:.3f}", None, None])
    text = render_rows(
        "Figure 11: index-size ratio vs n (W=7, 200-day synthetic Usenet trace)",
        ["n", "WATA* ratio", "WATA(size) ratio", "Theorem 3 bound"],
        rows,
    )
    return text, rows

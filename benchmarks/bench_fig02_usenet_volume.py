"""Figure 2: Usenet postings per day, September 1997.

Emits the synthetic 30-day trace with weekday annotations plus an ASCII
profile, matching the paper's plot shape (Wednesday peaks near 110k,
Sunday troughs near 30k).
"""

from repro.workloads.usenet import september_1997_volume

WEEKDAYS = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"]


def render_figure2() -> str:
    trace = september_1997_volume()
    peak = max(trace)
    lines = ["Figure 2: Usenet postings per day, September 1997 (synthetic)"]
    lines.append(f"{'day':>4}  {'weekday':>7}  {'postings':>9}  profile")
    lines.append("-" * 64)
    for i, volume in enumerate(trace):
        bar = "#" * round(40 * volume / peak)
        lines.append(
            f"{i + 1:>4}  {WEEKDAYS[i % 7]:>7}  {volume:>9,}  {bar}"
        )
    lines.append("-" * 64)
    lines.append(f"max {max(trace):,}   min {min(trace):,}")
    return "\n".join(lines)


def test_figure2_usenet_volume(report):
    text = render_figure2()
    report("fig02_usenet_volume", text)

"""Table 12: case-study parameter values.

Emits the published constants verbatim, plus the derived CP/SMCP costs and
the substrate-calibrated Build/Add/S' ratios — demonstrating the authors'
calibration procedure (we target the *ratios*, e.g. Add/Build ≈ 2 and
S'/S ≈ 1.4 at g = 2, not 1997 absolute seconds).
"""

from repro.analysis.parameters import TABLE12
from repro.bench.tables import render_rows
from repro.casestudies.scam import measure_build_add_constants

MB = 1_000_000


def published_rows():
    rows = []
    for name, p in TABLE12.items():
        rows.append(
            [
                name,
                p.window,
                p.application.s_bytes / MB,
                p.application.probe_num,
                p.application.scan_num,
                p.implementation.g,
                p.implementation.build_s,
                p.implementation.add_s,
                p.implementation.s_prime_bytes / MB,
                p.cp_s,
                p.smcp_s,
            ]
        )
    return rows


def calibration_rows():
    build, add, s_prime = measure_build_add_constants(1.0)
    return [
        ["substrate Build (s/day)", build],
        ["substrate Add (s/day)", add],
        ["substrate Add/Build ratio", add / build],
        ["substrate S' (bytes/day)", s_prime],
        ["paper Add/Build (SCAM)", 3341 / 1686],
        ["paper S'/S (SCAM)", 78.4 / 56],
    ]


def test_table12_published(report):
    rows = published_rows()
    report(
        "table12_published",
        render_rows(
            "Table 12: published case-study parameters (+ derived CP/SMCP)",
            [
                "scenario",
                "W",
                "S (MB)",
                "Probe_num",
                "Scan_num",
                "g",
                "Build (s)",
                "Add (s)",
                "S' (MB)",
                "CP (s/day)",
                "SMCP (s/day)",
            ],
            rows,
        ),
    )


def test_table12_calibration(report):
    rows = calibration_rows()
    report(
        "table12_calibration",
        render_rows(
            "Table 12 companion: substrate-calibrated constants vs paper ratios",
            ["quantity", "value"],
            rows,
        ),
    )

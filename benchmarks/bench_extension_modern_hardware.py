"""Extension: do the 1997 recommendations survive modern hardware?

The paper's trade-offs are functions of two hardware numbers: seek time
and transfer rate (14 ms / 10 MB/s in 1997).  This study re-runs the three
case-study decisions on successive hardware generations:

* 1997 disk — 14 ms seek, 10 MB/s
* 2010s SATA SSD — 0.1 ms seek, 500 MB/s
* 2020s NVMe — 0.01 ms seek, 3 GB/s

Probe costs are seek-dominated, so cheap seeks erase the penalty for large
``n``; scans are bandwidth-dominated, so fast transfer compresses the
packed-vs-unpacked and hard-vs-soft gaps.  The table shows which scheme
each era's advisor picks and how much separation is left.
"""

from dataclasses import replace

from repro.analysis.parameters import (
    HardwareParameters,
    SCAM_PARAMETERS,
    TPCD_PARAMETERS,
    WSE_PARAMETERS,
)
from repro.bench.tables import render_rows
from repro.core.advisor import recommend
from repro.storage.cost import MEGABYTE

GENERATIONS = [
    ("1997 disk", HardwareParameters(seek_s=0.014, trans_bps=10 * MEGABYTE)),
    ("SATA SSD", HardwareParameters(seek_s=0.0001, trans_bps=500 * MEGABYTE)),
    ("NVMe", HardwareParameters(seek_s=0.00001, trans_bps=3_000 * MEGABYTE)),
]

SCENARIOS = [
    ("SCAM", SCAM_PARAMETERS, dict(candidate_n=(1, 2, 4, 7))),
    ("WSE", WSE_PARAMETERS, dict(candidate_n=(1, 2, 5, 10))),
    (
        "TPC-D legacy",
        TPCD_PARAMETERS,
        dict(candidate_n=(1, 2, 10), packed_shadow_available=False),
    ),
]


def _rescale(params, hardware):
    """Swap the disk; data-derived times (Build/Add) scale with bandwidth.

    Table 12's Build/Add are dominated by streaming a day's index, so they
    shrink with the transfer-rate ratio — conservative for seek-bound
    components, which only get cheaper still.
    """
    ratio = params.hardware.trans_bps / hardware.trans_bps
    impl = replace(
        params.implementation,
        build_s=params.implementation.build_s * ratio,
        add_s=params.implementation.add_s * ratio,
        del_s=params.implementation.del_s * ratio,
    )
    return replace(params, hardware=hardware, implementation=impl)


def compute_rows():
    rows = []
    for scenario_name, params, kwargs in SCENARIOS:
        for gen_name, hardware in GENERATIONS:
            recs = recommend(_rescale(params, hardware), max_candidates=2, **kwargs)
            best, runner = recs[0], recs[1]
            rows.append(
                [
                    scenario_name,
                    gen_name,
                    f"{best.scheme} n={best.n_indexes} ({best.technique})",
                    best.total_work_s,
                    f"{runner.scheme} n={runner.n_indexes}",
                    runner.total_work_s / best.total_work_s,
                ]
            )
    return rows


def test_extension_modern_hardware(report):
    rows = compute_rows()
    report(
        "extension_modern_hardware",
        render_rows(
            "Extension: case-study recommendations across hardware generations",
            [
                "scenario",
                "hardware",
                "best configuration",
                "work (s/day)",
                "runner-up",
                "runner-up / best",
            ],
            rows,
        ),
    )
    # The 1997 rows must still match the paper's picks.
    by_key = {(r[0], r[1]): r for r in rows}
    assert by_key[("WSE", "1997 disk")][2].startswith("DEL n=1")
    assert by_key[("TPC-D legacy", "1997 disk")][2].startswith("WATA*")
    # Work collapses by orders of magnitude on modern hardware.
    assert (
        by_key[("SCAM", "NVMe")][3] < by_key[("SCAM", "1997 disk")][3] / 50
    )

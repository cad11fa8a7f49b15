"""Table 9: per-query performance of wave indexes under simple shadowing.

One TimedIndexProbe / TimedSegmentScan touches between 1 and n constituent
indexes; the table reports the per-index cost for each scheme (SCAM
parameters).  The closed forms are printed next to an actual measured probe
and scan on the simulated substrate to demonstrate the same ordering.

Asserted: every measured per-index probe is within 1 % of its closed
form, WATA*'s probe is the dearest and the others tie, in both columns;
REINDEX's packed scan is the cheapest in both; and the four schemes the
closed form ties at X days of S' measure within 2 % of one another.
Deviation (EXPERIMENTS.md, "Analytic tables"): 9a, the dearest measured
scan is DEL's, not WATA*'s.
"""

import pytest

from repro.analysis.formulas import table9_query
from repro.analysis.parameters import SCAM_PARAMETERS
from repro.bench.tables import render_rows
from repro.core.executor import PlanExecutor
from repro.core.schemes import ALL_SCHEMES
from repro.core.wave import WaveIndex
from repro.index.config import IndexConfig
from repro.index.updates import UpdateTechnique
from repro.storage.disk import SimulatedDisk
from repro.workloads.text import TextWorkloadConfig, build_store

N = 2
WINDOW = 7

#: How close a measured per-index probe is to its closed form.
PROBE_TOLERANCE = 0.01
#: How close the scans the closed form ties measure to one another.
TIED_SCAN_SPREAD = 0.02


def _measured_per_index(scheme_cls):
    store = build_store(
        2 * WINDOW,
        TextWorkloadConfig(docs_per_day=20, words_per_doc=10, vocabulary=150, seed=9),
    )
    disk = SimulatedDisk()
    wave = WaveIndex(disk, IndexConfig(), N)
    executor = PlanExecutor(wave, store, UpdateTechnique.SIMPLE_SHADOW)
    scheme = scheme_cls(WINDOW, N)
    executor.execute(scheme.start_ops())
    for day in range(WINDOW + 1, 2 * WINDOW + 1):
        executor.execute(scheme.transition_ops(day))
    probe = wave.index_probe("w1")
    scan = wave.segment_scan()
    return (
        probe.seconds / max(probe.indexes_probed, 1),
        scan.seconds / max(scan.indexes_scanned, 1),
    )


def compute_rows():
    rows = []
    for scheme_cls in ALL_SCHEMES:
        if scheme_cls.min_indexes > N:
            continue
        formula = table9_query(scheme_cls.name, SCAM_PARAMETERS, N)
        probe_s, scan_s = _measured_per_index(scheme_cls)
        rows.append(
            [
                scheme_cls.name,
                formula.probe_one_index_s * 1e3,
                formula.scan_one_index_s,
                probe_s * 1e3,
                scan_s * 1e3,
            ]
        )
    return rows


def test_table9_query(report):
    rows = compute_rows()
    report(
        "table9_query",
        render_rows(
            "Table 9: per-index query costs (SCAM, W=7, n=2)",
            [
                "scheme",
                "formula probe (ms)",
                "formula scan (s)",
                "substrate probe (ms)",
                "substrate scan (ms)",
            ],
            rows,
        ),
    )
    probe = {row[0]: (row[1], row[3]) for row in rows}
    scan = {row[0]: (row[2], row[4]) for row in rows}
    for formula, measured in probe.values():
        assert measured == pytest.approx(formula, rel=PROBE_TOLERANCE)
    for column in (0, 1):
        costs = {name: cells[column] for name, cells in probe.items()}
        assert max(costs, key=costs.get) == "WATA*"
        assert len({round(c, 9) for n, c in costs.items() if n != "WATA*"}) == 1
        costs = {name: cells[column] for name, cells in scan.items()}
        assert min(costs, key=costs.get) == "REINDEX"
    tied = [m for f, m in scan.values() if f == scan["DEL"][0]]
    assert len(tied) == 4 and max(tied) < min(tied) * (1 + TIED_SCAN_SPREAD)
    # The deviation, pinned so a change to it is seen (9a).
    formula = {name: cells[0] for name, cells in scan.items()}
    measured = {name: cells[1] for name, cells in scan.items()}
    assert max(formula, key=formula.get) == "WATA*"
    assert max(measured, key=measured.get) == "DEL"
    assert measured["WATA*"] > max(
        measured[name] for name in ("REINDEX+", "REINDEX++", "RATA*")
    )

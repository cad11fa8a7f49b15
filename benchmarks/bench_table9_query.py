"""Table 9: per-query performance of wave indexes under simple shadowing.

One TimedIndexProbe / TimedSegmentScan touches between 1 and n constituent
indexes; the table reports the per-index cost for each scheme (SCAM
parameters).  The closed forms are printed next to an actual measured probe
and scan on the simulated substrate to demonstrate the same ordering.
"""

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

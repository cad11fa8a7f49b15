"""Ablation: multiple disks (the paper's Section-8 future work).

With constituents spread over D disks, per-index maintenance overlaps.
The table reports, for REINDEX at n = 4, the measured build speedup on a
real simulated disk array as D grows — approaching n when work is
balanced, exactly as the paper anticipates.  (The closed-form analytic
model this bench once carried lived in ``repro.extensions.multidisk``,
removed in favour of the measured executor.)
"""

import pytest

from repro.bench.tables import render_rows
from repro.core.schemes import ReindexScheme
from repro.index.updates import UpdateTechnique
from repro.sim.multidisk_sim import MultiDiskExecutor
from repro.workloads.text import TextWorkloadConfig, build_store

N_INDEXES = 4
DISKS = (1, 2, 4, 8)


def compute_rows():
    """Measure the initial n-cluster build on arrays of growing width."""
    window = 8
    store = build_store(
        window,
        TextWorkloadConfig(docs_per_day=30, words_per_doc=12, vocabulary=300, seed=3),
    )
    rows = []
    for disks in DISKS:
        executor = MultiDiskExecutor.create(
            store, N_INDEXES, disks, technique=UpdateTechnique.SIMPLE_SHADOW
        )
        scheme = ReindexScheme(window, N_INDEXES)
        start = executor.execute_parallel(scheme.start_ops())
        rows.append(
            [
                disks,
                start.serial_seconds * 1e3,
                start.elapsed_seconds * 1e3,
                start.speedup,
            ]
        )
    return rows


def test_ablation_multidisk_measured(report):
    rows = compute_rows()
    report(
        "ablation_multidisk_measured",
        render_rows(
            "Ablation: measured disk-array build of the initial window "
            "(REINDEX, W=8, n=4)",
            ["disks", "serial (ms)", "elapsed (ms)", "speedup"],
            rows,
        ),
    )
    assert rows[0][3] == pytest.approx(1.0)
    assert rows[2][3] > 2.5  # 4 disks overlap the 4 cluster builds
    # Disks beyond n add nothing: the build has only n independent targets.
    assert rows[3][3] == pytest.approx(rows[2][3], rel=0.2)

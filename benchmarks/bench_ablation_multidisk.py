"""Ablation: multiple disks (the paper's Section-8 future work).

With constituents spread over D disks, per-index maintenance overlaps.
The table reports, for REINDEX at n = 4, the measured build speedup as
D grows — approaching n when work is balanced, exactly as the paper
anticipates.  Each row is the cluster day loop with one shard whose one
replica spans D devices (``ClusterConfig(devices_per_replica=D)``): its
executor rotates the initial build's index creations over the span, and
each device's clock delta over ``run_start()`` is its busy time.
"""

import pytest

from repro.bench.tables import render_rows
from repro.cluster import ClusterConfig, ClusterSimulation
from repro.core.schemes import ReindexScheme
from repro.index.updates import UpdateTechnique
from repro.workloads.text import TextWorkloadConfig, build_store

WINDOW = 8
N_INDEXES = 4
DISKS = (1, 2, 4, 8)


def compute_rows():
    """Measure the initial n-cluster build on spans of growing width."""
    store = build_store(
        WINDOW,
        TextWorkloadConfig(docs_per_day=30, words_per_doc=12, vocabulary=300, seed=3),
    )
    rows = []
    for disks in DISKS:
        sim = ClusterSimulation(
            lambda: ReindexScheme(WINDOW, N_INDEXES),
            store,
            technique=UpdateTechnique.SIMPLE_SHADOW,
            cluster=ClusterConfig(n_shards=1, devices_per_replica=disks),
        )
        span = sim.shards[0].replicas[0].span
        before = span.clocks()
        sim.run_start()
        busy = [now - then for now, then in zip(span.clocks(), before)]
        serial, elapsed = sum(busy), max(busy)
        rows.append([disks, serial * 1e3, elapsed * 1e3, serial / elapsed])
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

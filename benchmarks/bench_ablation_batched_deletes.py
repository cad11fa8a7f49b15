"""Ablation: batching DEL's deletions (the paper's bulk-delete claim).

"If there are a substantial number of deletes, [bulk deletion] may be more
efficient than deleting an entry at a time."  The batched-DEL scheme defers
deletions for ``k`` days; measured on the substrate, each flush touches the
affected buckets once instead of ``k`` times and shadows the index once
instead of ``k`` times — at the price of up to ``k − 1`` expired days in a
soft window.
"""

from repro.bench.tables import render_rows
from repro.core.executor import PlanExecutor
from repro.core.schemes import BatchedDelScheme, DelScheme
from repro.core.wave import WaveIndex
from repro.index.config import IndexConfig
from repro.index.updates import UpdateTechnique
from repro.storage.disk import SimulatedDisk
from repro.workloads.text import TextWorkloadConfig, build_store

WINDOW, N, LAST = 12, 2, 48
BATCHES = (1, 2, 4, 6, 12)


def _run(scheme_factory):
    store = build_store(
        LAST,
        TextWorkloadConfig(docs_per_day=25, words_per_doc=12, vocabulary=250, seed=19),
    )
    disk = SimulatedDisk()
    wave = WaveIndex(disk, IndexConfig(), N)
    executor = PlanExecutor(wave, store, UpdateTechnique.SIMPLE_SHADOW)
    scheme = scheme_factory()
    executor.execute(scheme.start_ops())
    start = disk.clock
    max_extra = 0
    for day in range(WINDOW + 1, LAST + 1):
        executor.execute(scheme.transition_ops(day))
        live = set(range(day - WINDOW + 1, day + 1))
        max_extra = max(max_extra, len(wave.covered_days() - live))
    days = LAST - WINDOW
    return (disk.clock - start) / days, max_extra


def compute_rows():
    rows = []
    baseline, _ = _run(lambda: DelScheme(WINDOW, N))
    for k in BATCHES:
        seconds, extra = _run(
            lambda: BatchedDelScheme(WINDOW, N, batch_days=k)
        )
        rows.append(
            [k, seconds * 1e3, seconds / baseline, extra]
        )
    return rows


def test_ablation_batched_deletes(report):
    rows = compute_rows()
    report(
        "ablation_batched_deletes",
        render_rows(
            "Ablation: DEL with batched deletions "
            f"(measured, W={WINDOW}, n={N}, simple shadowing)",
            [
                "batch days k",
                "maintenance (ms/day)",
                "vs plain DEL",
                "max expired days held",
            ],
            rows,
        ),
    )
    by_k = {r[0]: r for r in rows}
    assert by_k[1][2] > 0.95  # k = 1 is DEL
    assert by_k[6][1] < by_k[1][1]  # batching wins
    assert by_k[6][3] <= 5  # soft window stays within k − 1

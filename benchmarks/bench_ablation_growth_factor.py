"""Ablation: the CONTIGUOUS growth factor ``g``.

Reproduces the paper's calibration methodology: "we executed AddToIndex to
index words of one day's Netnews articles for several values of g.  Based
on the trade-off between space consumption S' and the time spent copying
buckets, we chose g = 2" — and ``g = 1.08`` for TPC-D's uniform keys.

The sweep measures, on the simulated substrate, the unpacked-over-packed
space ratio (S'/S) and the incremental add time per day for Zipfian text
and for uniform keys.
"""

from repro.bench.tables import render_rows
from repro.core.records import RecordStore
from repro.index.builder import build_packed_index
from repro.index.config import IndexConfig
from repro.index.constituent import ConstituentIndex
from repro.index.contiguous import ContiguousPolicy
from repro.storage.disk import SimulatedDisk
from repro.workloads.text import NetnewsGenerator, TextWorkloadConfig
from repro.workloads.tpcd import TpcdConfig, TpcdGenerator

G_VALUES = (1.05, 1.2, 1.5, 2.0, 3.0)
DAYS = 5


def _zipfian_store() -> RecordStore:
    store = RecordStore()
    NetnewsGenerator(
        TextWorkloadConfig(
            docs_per_day=60, words_per_doc=20, vocabulary=800, seed=17
        )
    ).populate(store, 1, DAYS + 1)
    return store


def _uniform_store() -> RecordStore:
    store = RecordStore()
    TpcdGenerator(TpcdConfig(rows_per_day=900, suppliers=400, seed=17)).populate(
        store, 1, DAYS + 1
    )
    return store


def _sweep(store: RecordStore, label: str):
    rows = []
    for g in G_VALUES:
        disk = SimulatedDisk()
        config = IndexConfig(contiguous=ContiguousPolicy(growth_factor=g))
        index = ConstituentIndex.create_empty(disk, config)
        add_seconds = 0.0
        for day in range(1, DAYS + 1):
            add_seconds += index.insert_postings(
                store.grouped_for([day]), [day]
            )
        s_prime = index.allocated_bytes / DAYS

        packed_disk = SimulatedDisk()
        packed = build_packed_index(
            packed_disk, config, store.grouped_for(range(1, DAYS + 1)),
            range(1, DAYS + 1),
        )
        s = packed.allocated_bytes / DAYS
        rows.append(
            [label, g, s_prime / s, add_seconds / DAYS * 1e3]
        )
    return rows


def compute_rows():
    return _sweep(_zipfian_store(), "zipfian text") + _sweep(
        _uniform_store(), "uniform keys"
    )


def test_ablation_growth_factor(report):
    rows = compute_rows()
    report(
        "ablation_growth_factor",
        render_rows(
            "Ablation: CONTIGUOUS growth factor g "
            "(space overhead vs incremental add time)",
            ["workload", "g", "S'/S", "Add per day (ms)"],
            rows,
        ),
    )
    # The published trade-off: bigger g buys cheaper adds with more slack.
    zipf = [r for r in rows if r[0] == "zipfian text"]
    ratios = [r[2] for r in zipf]
    adds = [r[3] for r in zipf]
    assert ratios == sorted(ratios), "S'/S must grow with g"
    assert adds[-1] <= adds[0], "copying work must shrink with g"

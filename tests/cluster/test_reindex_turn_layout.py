"""A REINDEX day lays out no scan order and builds no sweep.

REINDEX rebuilds one packed constituent per shard every day, from the
days' posting runs.  The layout it lays keeps those runs and bucket
offsets, no copy of their entries: a probe joins the one bucket it
reads, and a scan of the newest day lays out that day's run alone.  So
on ``perf/``'s ``day-turn`` shape — four hash shards, W = 7 on n = 2,
shadow rebuilds, a page cache that fits — a turn, the probes after it
and a newest-day scan leave every layout without its bucket-major tuple
and every constituent without a sweep, and every answer is the one a
twin built bucket by bucket (``tests.reference.packed.eager_world``)
gives.
"""

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.core.oracle import battery, check_against_twin
from repro.core.records import RecordStore
from repro.core.schemes import scheme_by_name
from repro.index.updates import UpdateTechnique
from repro.workloads.text import NetnewsGenerator, TextWorkloadConfig
from tests.reference.packed import eager_world

W, N, SHARDS = 7, 2, 4
LAST = W + 4


def build():
    store = RecordStore()
    NetnewsGenerator(
        TextWorkloadConfig(
            docs_per_day=12, words_per_doc=8, vocabulary=60, zipf_s=1.0, seed=7
        )
    ).populate(store, 1, LAST)
    sim = ClusterSimulation(
        lambda: scheme_by_name("REINDEX")(W, N),
        store,
        technique=UpdateTechnique.SIMPLE_SHADOW,
        cluster=ClusterConfig(
            n_shards=SHARDS, replication=1, page_cache_bytes=1024 * 1024
        ),
    )
    sim.run_start()
    for day in range(W + 1, LAST):
        sim.run_transition(day)
    return sim


def test_a_reindex_turn_probes_and_newest_day_scan_lay_out_nothing():
    sim = build()
    with eager_world():
        twin = build()
    sim.run_transition(LAST)
    twin.run_transition(LAST)
    words = sorted({v for d in (LAST - 1, LAST) for r in sim.store.batch(d).records
                    for v in r.values})
    probes = [(w, t1, LAST) for w in words for t1 in (LAST - W + 1, LAST)]
    scans = [(LAST, LAST)]
    got = battery(sim.coordinator, probes, scans)

    layouts = 0
    for shard in sim.shards:
        for index in shard.primary.wave.bindings.values():
            assert index._sweep is None
            layout = index._layout
            if layout is None:
                continue
            layouts += 1
            assert layout.days and layout._flat is None
            if LAST in index.time_set:
                assert list(index._day_runs) == [LAST]
    assert layouts == SHARDS * N  # every constituent is a layout from day runs

    want = battery(twin.coordinator, probes, scans)
    assert got == want
    assert all(check_against_twin(a, t).status == "ok" for a, t in zip(got, want))
    assert got[-1].entries and sum(map(len, (r.entries for r in got[:-1])))

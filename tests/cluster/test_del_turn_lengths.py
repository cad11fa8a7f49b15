"""A DEL turn leaves every bucket it wrote its day column: no probe reads a day.

On ``perf/``'s ``coord-batch`` shape — four hash shards, DEL in place
with W = 7 on n = 2, a page cache too small to fit — each turn appends
the new day to one constituent per shard and deletes the expired day
from one, and every bucket either op writes loses its run.  The bucket
keeps its day column as run lengths, written by the insert (one pair a
bucket) and cut by the delete (by offset), so the first probe of each
touched value after the turn lays its column from the pairs: the turn
and every probe after it call ``kernels.day_column`` not once.  The
answers equal a twin's that deletes as the package did before
(``tests.reference.delete.delete_days_on_runs``) and builds every run
from its entries' days (``kernels.Run.of``).
"""

from contextlib import contextmanager
from unittest import mock

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.core.oracle import battery, check_against_twin
from repro.core.records import RecordStore
from repro.core.schemes import scheme_by_name
from repro.index import kernels
from repro.index.bucket import Bucket
from repro.index.constituent import ConstituentIndex
from repro.index.updates import UpdateTechnique
from repro.workloads.text import NetnewsGenerator, TextWorkloadConfig
from tests.reference.delete import delete_days_on_runs

W, N, SHARDS = 7, 2, 4
LAST = W + 5


def build():
    store = RecordStore()
    NetnewsGenerator(
        TextWorkloadConfig(
            docs_per_day=16, words_per_doc=8, vocabulary=80, zipf_s=1.0, seed=7
        )
    ).populate(store, 1, LAST)
    sim = ClusterSimulation(
        lambda: scheme_by_name("DEL")(W, N),
        store,
        technique=UpdateTechnique.IN_PLACE,
        cluster=ClusterConfig(
            n_shards=SHARDS, replication=1, page_cache_bytes=2 * 1024
        ),
    )
    sim.run_start()
    return sim


def words(sim, days):
    return sorted({v for d in days for r in sim.store.batch(d).records for v in r.values})


def warm(sim, day):
    """Probe every word over the window: readers leave runs, as between
    two turns of ``coord-batch``."""
    sim.coordinator.probe_many([(w, day - W + 1, day) for w in words(sim, range(1, day + 1))])


@contextmanager
def old_world():
    """The delete cutting on the readers' runs, runs read off the entries."""

    def run_of_entries(bucket):
        run = bucket._run
        if run is None or len(run.days) != len(bucket.entries):
            run = bucket._run = kernels.Run.of(bucket.entries)
        return run

    with (
        mock.patch.object(ConstituentIndex, "delete_days", delete_days_on_runs),
        mock.patch.object(Bucket, "run", run_of_entries),
    ):
        yield


def test_a_del_turn_and_the_probes_after_it_read_no_entry_day():
    sim = build()
    with old_world():
        twin = build()
    for day in range(W + 1, LAST):
        sim.run_transition(day)
        warm(sim, day)
        with old_world():
            twin.run_transition(day)
            warm(twin, day)
    touched = words(sim, (LAST, LAST - W))  # inserted, and deleted
    probes = [(w, t1, LAST) for w in touched for t1 in (LAST - W + 1, LAST - 1)]
    calls = []
    real = kernels.day_column

    def counted(entries):
        calls.append(len(entries))
        return real(entries)

    with mock.patch.object(kernels, "day_column", counted):
        sim.run_transition(LAST)
        got = battery(sim.coordinator, probes, [])
    assert calls == []
    with old_world():
        twin.run_transition(LAST)
        want = battery(twin.coordinator, probes, [])
    assert got == want
    assert all(check_against_twin(a, t).status == "ok" for a, t in zip(got, want))
    assert sum(len(a.entries) for a in got) > 100
    # The turn wrote buckets (their runs are gone) and probes laid them again.
    written = [
        b
        for shard in sim.shards
        for index in shard.primary.wave.bindings.values()
        for b in index.buckets()
        if isinstance(b, Bucket)
    ]
    assert written and all(b._lengths == kernels.run_lengths(b.entries) for b in written)

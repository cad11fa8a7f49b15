"""A batch's bill is read off the device's counters.

``WaveIndex._begin_batch`` keeps five numbers — clock, seeks, bytes read,
cache hits, cache misses — and ``_finish_batch`` subtracts them from the
live counters.  The bill it replaced took an ``IOSnapshot`` and a
``PageCacheSnapshot`` at each end and subtracted the records;
``tests.reference.batch.snapshot_bill`` serves a twin wave that way.
Twin waves on twin devices are driven through the same random
``probe_many`` / ``scan_many`` batches and every ``BatchCostSummary``
must be ``==`` the snapshot twin's — on a cacheless device, under a page
cache small enough to evict, and on a ``FaultyDisk`` whose transient
faults knock constituents offline in the middle of a batch.

The mechanism is pinned too: with both ``snapshot`` methods made to
raise, a wave and a cluster coordinator still answer, billed the same.

A bill is built when it is first read.  Twin clusters are held to the
eager coordinator of ``tests.reference.batch`` through kills, dark
shards, stale marks and transients, with every bill read only after a
day has turned, and an unread bill builds no summary record.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterCostSummary,
    ClusterSimulation,
    SelfHealConfig,
)
from repro.core.executor import PlanExecutor
from repro.core.queries import BatchCostSummary
from repro.core.schemes import DelScheme, scheme_by_name
from repro.core.wave import WaveIndex
from repro.errors import FaultError, ReproError
from repro.index.config import IndexConfig
from repro.index.updates import UpdateTechnique
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultInjector, FaultyDisk, RetryPolicy
from repro.storage.pagecache import PageCache
from repro.storage.stats import IOStats
from tests.conftest import depth, make_store
from tests.reference.batch import (
    probe_many_eager,
    scan_many_eager,
    snapshot_bill,
)

WINDOW, N, LAST = 6, 3, 12
LO, HI = LAST - WINDOW + 1, LAST

#: Smaller than the wave, pages smaller than a bucket: touches hit, miss
#: and evict.
CACHE_BYTES, PAGE = 512, 64


def cacheless():
    return SimulatedDisk()


def tiny_cache():
    return SimulatedDisk(page_cache=PageCache(CACHE_BYTES, PAGE))


def faulty():
    # No faults while the wave is built; ``arm`` turns them on to serve.
    return FaultyDisk(
        page_cache=PageCache(CACHE_BYTES, PAGE),
        injector=FaultInjector(seed=3),
        retry_policy=RetryPolicy(max_attempts=2),
    )


def arm(disk):
    if isinstance(disk, FaultyDisk):
        disk.injector.transient_read_rate = 0.3


DEVICES = {"cacheless": cacheless, "tiny-cache": tiny_cache, "faulty": faulty}


def build(make_disk):
    disk = make_disk()
    store = make_store(LAST, seed=13)
    wave = WaveIndex(disk, IndexConfig(), N)
    executor = PlanExecutor(wave, store, UpdateTechnique.SIMPLE_SHADOW)
    scheme = DelScheme(WINDOW, N)
    executor.execute(scheme.start_ops())
    for day in range(WINDOW + 1, LAST + 1):
        executor.execute(scheme.transition_ops(day))
    arm(disk)
    return wave


def serve(wave, batches, degraded):
    """Serve ``batches`` in order; return every outcome and the device."""
    seen = []
    for kind, specs in batches:
        batch = wave.probe_many if kind == "probe" else wave.scan_many
        try:
            served = batch(specs, degraded=degraded)
        except FaultError as error:
            seen.append((kind, type(error).__name__))
            continue
        seen.append((kind, served.summary, served.results))
    disk = wave.disk
    cache = disk.page_cache
    seen.append(
        (
            disk.clock,
            disk.snapshot(),
            cache and cache.snapshot(),
            sorted(wave.offline),
        )
    )
    return seen


def bill_both(device, batches):
    degraded = device == "faulty"
    got = serve(build(DEVICES[device]), batches, degraded)
    with snapshot_bill():
        want = serve(build(DEVICES[device]), batches, degraded)
    return got, want


ranges = st.tuples(st.integers(1, LAST + 2), st.integers(1, LAST + 2)).map(
    lambda pair: (min(pair), max(pair))
)
probe_batch = st.lists(
    st.tuples(st.sampled_from("abcdefghz"), ranges).map(
        lambda spec: (spec[0], *spec[1])
    ),
    min_size=1,
    max_size=8,
)
batches = st.lists(
    st.one_of(
        st.tuples(st.just("probe"), probe_batch),
        st.tuples(st.just("scan"), st.lists(ranges, min_size=1, max_size=6)),
    ),
    min_size=1,
    max_size=6,
)

FIXED = [
    ("probe", [("a", LO, HI), ("b", LO, HI), ("a", LO, HI), ("z", LO, HI)]),
    ("scan", [(LO, HI), (HI, HI), (LO, LO + 1)]),
    ("probe", [(v, LO, HI) for v in "abcdefgh"]),
    ("scan", [(LO, HI)] * 3),
    ("probe", [(v, LO, HI) for v in "hgfedcba"]),
]


@pytest.mark.parametrize("device", list(DEVICES))
@given(batches=batches)
@example(batches=FIXED)
@settings(max_examples=max(40, settings().max_examples), deadline=None)
def test_the_bill_equals_the_snapshot_difference(device, batches):
    got, want = bill_both(device, batches)
    assert got == want


def test_the_fixed_batches_evict_and_fault_mid_batch():
    # The three setups are what their names say on the pinned example.
    _, want = bill_both("tiny-cache", FIXED)
    assert want[-1][2].evictions > 0 and want[-1][2].hits > 0
    got, want = bill_both("faulty", FIXED)
    assert got == want
    assert got[-1][3], "no constituent went offline"
    summaries = [outcome[1] for outcome in got[:-1]]
    # A constituent that faulted in a batch was charged for its attempt
    # and then skipped: the batch still answered, partially.
    assert any(
        s.constituents_touched < N and s.seconds > 0 for s in summaries
    )


def raising(*_args, **_kwargs):
    raise AssertionError("a snapshot record was built on the read path")


@pytest.mark.parametrize("device", list(DEVICES))
def test_a_wave_bills_without_snapshot_records(device, monkeypatch):
    with snapshot_bill():
        want = serve(build(DEVICES[device]), FIXED, device == "faulty")
    wave = build(DEVICES[device])
    monkeypatch.setattr(IOStats, "snapshot", raising)
    monkeypatch.setattr(PageCache, "snapshot", raising)
    got = []
    for kind, specs in FIXED:
        batch = wave.probe_many if kind == "probe" else wave.scan_many
        served = batch(specs, degraded=device == "faulty")
        got.append((kind, served.summary, served.results))
    assert got == want[:-1]


def build_cluster():
    sim = ClusterSimulation(
        lambda: scheme_by_name("REINDEX")(10, 4),
        make_store(16),
        cluster=ClusterConfig(
            n_shards=3, replication=2, page_cache_bytes=2048, page_size=PAGE
        ),
    )
    sim.run(16)
    return sim.coordinator


def cluster_batches(coordinator):
    probes = [(v, 7, 16) for v in "abcdefgha"]
    scans = [(7, 16), (16, 16), (7, 8)]
    return [
        coordinator.probe_many(probes),
        coordinator.scan_many(scans),
        coordinator.probe_many(probes),
    ]


def test_a_coordinator_bills_without_snapshot_records(monkeypatch):
    with snapshot_bill():
        want = cluster_batches(build_cluster())
    coordinator = build_cluster()
    monkeypatch.setattr(IOStats, "snapshot", raising)
    monkeypatch.setattr(PageCache, "snapshot", raising)
    got = cluster_batches(coordinator)
    assert [(b.results, b.summary) for b in got] == [
        (b.results, b.summary) for b in want
    ]
    assert any(
        shard.cache_hits for b in got for _, shard in b.summary.per_shard
    )


# ----------------------------------------------------------------------
# The coordinator's bill is built when read
# ----------------------------------------------------------------------
#
# A ``ClusterBatchResult`` keeps its per-shard batches, dark shards,
# aborted seconds and failover count, and builds its
# ``ClusterCostSummary`` (and the shards' ``BatchCostSummary``\s) on the
# first ``summary`` read.  Twin clusters are driven through the same
# random batches and faults; one is served by the coordinator, the other
# by ``tests.reference.batch``'s eager coordinator (the serving rule and
# ``SummaryMerge`` as they were, every shard's summary read as its batch
# lands).  The coordinator's bills are read only after every batch has
# run and a day has turned.

C_WINDOW, C_N, C_LAST = 6, 3, 10
C_LO, C_HI = C_LAST - C_WINDOW + 1, C_LAST
C_SHARDS = 3


def cluster_device(device):
    page_cache = (lambda: None) if device == "cacheless" else (
        lambda: PageCache(CACHE_BYTES, PAGE)
    )
    return lambda i: FaultyDisk(
        page_cache=page_cache(),
        injector=FaultInjector(seed=i),
        retry_policy=RetryPolicy(max_attempts=2),
    )


def build_faulty_cluster(device, monitor):
    sim = ClusterSimulation(
        lambda: scheme_by_name("REINDEX")(C_WINDOW, C_N),
        make_store(C_LAST + 1),
        cluster=ClusterConfig(
            n_shards=C_SHARDS,
            replication=2,
            selfheal=(
                SelfHealConfig(retry=RetryPolicy(max_attempts=3))
                if monitor
                else None
            ),
        ),
        device_factory=cluster_device(device),
    )
    sim.run_start()
    for day in range(C_WINDOW + 1, C_LAST + 1):
        sim.run_transition(day)
    if device == "faulty":
        for device_ in sim.array.devices:
            device_.injector.transient_read_rate = 0.3
    return sim


def drive_cluster(sim, steps, serve_probe, serve_scan):
    """Run ``steps`` on ``sim``; return each batch's kept result."""
    served = []
    for step in steps:
        kind = step[0]
        if kind in ("kill", "stale"):
            # By id: a retired replica has left its shard, and a step
            # naming it does nothing.
            replica = next(
                (r for r in sim.shards[step[1]].replicas
                 if r.replica_id == step[2]),
                None,
            )
            if replica is None:
                continue
            if kind == "kill":
                replica.device.injector.fail_device()
            else:
                replica.wave.offline.add(step[3])
        else:
            serve = serve_probe if kind == "probe" else serve_scan
            try:
                served.append((kind, serve(sim.coordinator, step[1])))
            except ReproError as error:
                served.append((kind, type(error).__name__))
    return served


def turn_a_day(sim):
    for device in sim.array.devices:
        device.injector.transient_read_rate = 0.0
    sim.run_transition(C_LAST + 1)


def cluster_state(sim):
    coordinator = sim.coordinator
    return (
        [(d.clock, d.snapshot(), d.page_cache and d.page_cache.snapshot())
         for d in sim.array.devices],
        [
            (r.name, sorted(r.wave.offline))
            for shard in sim.shards
            for r in shard.replicas
        ],
        coordinator.failovers,
        coordinator.obs.counters(),
    )


def bill_cluster_both(device, monitor, steps):
    lazy = build_faulty_cluster(device, monitor)
    served = drive_cluster(
        lazy,
        steps,
        lambda c, specs: c.probe_many(specs),
        lambda c, specs: c.scan_many(specs),
    )
    turn_a_day(lazy)
    got = [
        (kind, out if isinstance(out, str) else (out.results, out.summary))
        for kind, out in served
    ]
    eager = build_faulty_cluster(device, monitor)
    want = drive_cluster(eager, steps, probe_many_eager, scan_many_eager)
    turn_a_day(eager)
    return (got, cluster_state(lazy)), (want, cluster_state(eager))


cluster_ranges = st.tuples(
    st.integers(1, C_LAST + 2), st.integers(1, C_LAST + 2)
).map(lambda pair: (min(pair), max(pair)))
cluster_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("probe"),
            st.lists(
                st.tuples(st.sampled_from("abcdefghz"), cluster_ranges).map(
                    lambda spec: (spec[0], *spec[1])
                ),
                min_size=1,
                max_size=8,
            ),
        ),
        st.tuples(
            st.just("scan"), st.lists(cluster_ranges, min_size=1, max_size=4)
        ),
        st.tuples(
            st.just("kill"), st.integers(0, C_SHARDS - 1), st.integers(0, 1)
        ),
        st.tuples(
            st.just("stale"),
            st.integers(0, C_SHARDS - 1),
            st.integers(0, 1),
            st.sampled_from([f"I{i}" for i in range(1, C_N + 1)]),
        ),
    ),
    min_size=1,
    max_size=8,
)

#: A failover (shard 0 loses its primary), a dark shard (shard 1 loses
#: both replicas) and a stale mark (shard 2's primary), around probe and
#: scan batches over the whole window and parts of it.
C_FIXED = [
    ("probe", [(v, C_LO, C_HI) for v in "abcdefgh"]),
    ("kill", 0, 0),
    ("scan", [(C_LO, C_HI), (C_HI, C_HI)]),
    ("probe", [(v, C_LO, C_HI) for v in "abcdefgha"]),
    ("kill", 1, 0),
    ("kill", 1, 1),
    ("stale", 2, 0, "I1"),
    ("probe", [("a", C_LO, C_HI), ("b", C_LO + 1, C_HI), ("z", C_LO, C_LO)]),
    ("scan", [(C_LO, C_HI), (C_LO, C_LO + 1), (C_LO, C_HI)]),
]


@pytest.mark.parametrize("device", list(DEVICES))
@given(steps=cluster_steps, monitor=st.booleans())
@example(steps=C_FIXED, monitor=True)
@example(steps=C_FIXED, monitor=False)
@settings(max_examples=depth(12), deadline=None)
def test_a_coordinator_bill_read_late_equals_the_eager_bill(
    device, steps, monitor
):
    got, want = bill_cluster_both(device, monitor, steps)
    assert got == want


def test_the_fixed_cluster_steps_fail_over_go_dark_and_abort():
    (got, _), (want, _) = bill_cluster_both("faulty", True, C_FIXED)
    assert got == want
    summaries = [out[1] for _kind, out in got if not isinstance(out, str)]
    assert any(s.failovers for s in summaries)
    assert any(s.shards_unavailable == (1,) for s in summaries)
    assert any(s.aborted_seconds > 0 for s in summaries)
    assert any(s.missing_days for s in summaries)


def test_an_unread_bill_builds_no_record(monkeypatch):
    built = []

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built.append(cls.__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    counting(BatchCostSummary)
    counting(ClusterCostSummary)
    coordinator = build_cluster()
    coordinator.probe_many([("a", 7, 16)])
    coordinator.probe_many([(v, 7, 16) for v in "abcdefgh" * 4])
    coordinator.scan_many([(7, 16)])
    assert built == []
    lone = coordinator.probe_many([("a", 7, 16)])
    batch = coordinator.probe_many([(v, 7, 16) for v in "abcdefgh" * 4])
    assert lone.summary is lone.summary
    assert built == ["BatchCostSummary", "ClusterCostSummary"]
    del built[:]
    assert batch.summary == batch.summary
    assert sorted(built) == ["BatchCostSummary"] * 3 + ["ClusterCostSummary"]

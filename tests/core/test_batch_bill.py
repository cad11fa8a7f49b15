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
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSimulation
from repro.core.executor import PlanExecutor
from repro.core.schemes import DelScheme, scheme_by_name
from repro.core.wave import WaveIndex
from repro.errors import FaultError
from repro.index.config import IndexConfig
from repro.index.updates import UpdateTechnique
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultInjector, FaultyDisk, RetryPolicy
from repro.storage.pagecache import PageCache
from repro.storage.stats import IOStats
from tests.conftest import make_store
from tests.reference.batch import snapshot_bill

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

"""Every replica has one shape, however it was made.

The first build, a split's children, a retune and the healer's rebuild
each make replicas; all of them hold a planner, a plain ``PlanExecutor``
and a view of the cluster's source store, so no reshard lays down a
store of its own and no ``Record`` outlives the source's.  Every one
spans ``devices_per_replica`` devices, and a device no live replica
spans holds no live bytes unless it failed.
"""

import gc

import pytest

from repro.advisor import AdvisorConfig
from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    ElasticConfig,
    SelfHealConfig,
)
from repro.cluster.partitioner import ShardView
from repro.core.executor import PlanExecutor
from repro.core.records import Record
from repro.core.schemes import scheme_by_name
from repro.core.schemes.base import WaveScheme
from repro.sim.querygen import QueryWorkload, uniform_key_picker
from repro.storage.faults import FaultInjector, FaultyDisk
from tests.advisor.helpers import make_int_store

W = 6
LAST = W + 10


def _live_records() -> int:
    gc.collect()
    return sum(type(o) is Record for o in gc.get_objects())


def _probe_heavy() -> QueryWorkload:
    # Probe-heavy traffic against DEL/6: the advisor retunes.
    return QueryWorkload(
        probes_per_day=200, value_picker=uniform_key_picker(16), seed=5
    )


def _advisor() -> AdvisorConfig:
    return AdvisorConfig(observe_days=1, cooldown_days=30, amortization_days=30)


def _faulty(_index):
    return FaultyDisk(injector=FaultInjector())


def _split_retune_and_rebuild(store, width=1):
    """An advised, self-healing, elastic cluster through a split of shard
    0 on day W+1, the advisor's retunes, and the rebuild of a replica
    whose every device dies on day W+8."""
    sim = ClusterSimulation(
        lambda: scheme_by_name("DEL")(W, W),
        store,
        queries=_probe_heavy(),
        cluster=ClusterConfig(
            n_shards=2,
            replication=2,
            maintenance="lockstep",
            partitioner="range",
            range_splits=(8,),
            advisor=_advisor(),
            elastic=ElasticConfig(autoscale=False, min_shards=1),
            selfheal=SelfHealConfig(),
            devices_per_replica=width,
        ),
        device_factory=_faulty,
    )
    sim.request_split(0)
    sim.run_start()
    for day in range(W + 1, LAST + 1):
        if day == W + 8:
            for device in sim.shards[-1].replicas[1].span.devices:
                device.injector.fail_device()
        sim.run_transition(day)
    days = sim.result.days
    assert sum(d.reshards for d in days) == 1
    assert sum(d.retunes for d in days) >= 1
    assert sum(d.rebuilds for d in days) == 1
    return sim


def test_split_retune_and_rebuild_leave_one_replica_shape():
    before = _live_records()
    store = make_int_store(LAST, domain=16, seed=3)
    source_records = sum(len(store.batch(day).records) for day in store.days)
    sim = _split_retune_and_rebuild(store)

    for shard in sim.shards:
        assert isinstance(shard.store, ShardView)
        assert shard.store._split.source is sim.store
        for replica in shard.replicas:
            assert type(replica.executor) is PlanExecutor, replica.name
            assert isinstance(replica.scheme, WaveScheme)
            assert replica.executor.store is shard.store
    assert _live_records() - before <= source_records


@pytest.mark.parametrize("width", [1, 3])
def test_every_replica_spans_its_width_however_it_was_made(width):
    sim = _split_retune_and_rebuild(
        make_int_store(LAST, domain=16, seed=3), width
    )
    live = [r for shard in sim.shards for r in shard.replicas]
    assert [len(r.span) for r in live] == [width] * len(live)
    spanned = {device for r in live for device in r.span.devices}
    # A retired wave was discarded from every device of its span.
    leftovers = [
        i
        for i, device in enumerate(sim.array.devices)
        if device not in spanned and not device.failed and device.live_bytes
    ]
    assert leftovers == []


@pytest.mark.parametrize("width", [1, 3])
def test_a_retuned_replica_keeps_its_width(width):
    sim = ClusterSimulation(
        lambda: scheme_by_name("DEL")(W, W),
        make_int_store(W + 8, domain=16, seed=3),
        queries=_probe_heavy(),
        cluster=ClusterConfig(
            n_shards=1,
            maintenance="lockstep",
            advisor=_advisor(),
            devices_per_replica=width,
        ),
    )
    sim.run(W + 8)
    assert sum(d.retunes for d in sim.result.days) == 1
    (replica,) = sim.shards[0].replicas
    assert replica.scheme is not sim.shards[0].scheme
    assert len(replica.span) == width
    # Its indexes sit on its own span, and its old span holds nothing.
    assert {i.disk for i in replica.wave.bindings.values()} <= set(
        replica.span.devices
    )
    assert all(device.live_bytes == 0 for device in sim.array.devices[:width])


@pytest.mark.parametrize("width", [1, 3])
def test_a_split_bills_every_read_of_its_donors_span(width):
    sim = ClusterSimulation(
        lambda: scheme_by_name("DEL")(W, W),
        make_int_store(W + 1, domain=16, seed=3),
        cluster=ClusterConfig(
            n_shards=2,
            partitioner="range",
            range_splits=(8,),
            elastic=ElasticConfig(autoscale=False, min_shards=1),
            devices_per_replica=width,
        ),
    )
    sim.run_start()
    donor = sim.shards[0].primary
    before = donor.span.clocks()
    sim.request_split(0)
    (report,) = sim.turn(W + 1).reshards
    reads = [now - then for now, then in zip(donor.span.clocks(), before)]
    # The donor's constituents, and so the copy's reads, are spread over
    # every device of its span.
    assert len(reads) == width and min(reads) > 0.0
    # The children's devices are fresh: their clocks are the copy's
    # writes and the catch-up.
    children = [r for shard in sim.shards[:2] for r in shard.replicas]
    written = sum(r.span.total_clock for r in children)
    assert report.copy_seconds == pytest.approx(
        sum(reads) + written - report.catchup_seconds
    )
    assert [len(r.span) for r in children] == [width, width]


def test_a_replica_retired_for_a_dead_device_frees_its_surviving_devices():
    # One shard, r=2, DEL/6 over three devices a replica, self-healing:
    # the first device of replica 1 dies on day W.
    sim = ClusterSimulation(
        lambda: scheme_by_name("DEL")(W, W),
        make_int_store(LAST, domain=16, seed=3),
        queries=_probe_heavy(),
        cluster=ClusterConfig(
            n_shards=1,
            replication=2,
            devices_per_replica=3,
            selfheal=SelfHealConfig(),
        ),
        device_factory=_faulty,
    )
    sim.run_start()
    victim = sim.shards[0].replicas[1]
    dead, *surviving = victim.span.devices
    held = dead.live_bytes
    dead.injector.fail_device()
    for day in range(W + 1, W + 5):
        sim.run_transition(day)
    assert victim not in sim.shards[0].replicas
    assert sum(d.rebuilds for d in sim.result.days) == 1
    assert surviving == sim.array.devices[4:6]
    assert [device.live_bytes for device in surviving] == [0, 0]
    # The dead device's accounting is left as it was.
    assert dead.live_bytes == held > 0
    assert {index.disk for index in victim.wave.bindings.values()} == {dead}
    # Were the shard to go dark now, the window its last replica held is
    # still what its answers would have covered, though the wave is gone.
    shard = sim.shards[0]
    for replica in shard.replicas:
        shard.retire(replica, None, reason="serving-fault")
    assert not shard.replicas and not replica.wave.bindings
    window = set(range(5, W + 5))
    assert shard.window_days(1, W + 4) == window

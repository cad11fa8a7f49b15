"""A retired replica leaves its shard.

Retirement has one entry point, :meth:`Shard.retire`: the replica leaves
``shard.replicas`` by one assignment, whatever retired it — a dead
device in maintenance or in serving, a flaky device that spent its
retries, a rebuild's donor that died — and every binding it held on a
healthy device is dropped.  Bytes are conserved across the cluster
(:mod:`tests.cluster.conservation`), replica ids are never handed out
twice, and a shard whose last replica left reports the window that
replica held, never an earlier replica's.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSimulation, SelfHealConfig
from repro.cluster.shard import BreakerState, Shard
from repro.core.boundary import drive
from repro.core.schemes import scheme_by_name
from repro.errors import ClusterError
from repro.index.updates import UpdateTechnique
from repro.sim.querygen import QueryWorkload, uniform_key_picker
from repro.sim.scheduler import OverlapPolicy
from repro.storage.faults import FaultInjector, FaultyDisk
from tests.advisor.helpers import make_int_store
from tests.cluster.conservation import assert_bytes_conserved
from tests.conftest import depth, make_store


def _faulty(_index):
    return FaultyDisk(injector=FaultInjector())


def _healthy_retired_case() -> ClusterSimulation:
    return ClusterSimulation(
        lambda: scheme_by_name("DEL")(6, 6),
        make_int_store(16, domain=16, seed=3),
        queries=QueryWorkload(
            probes_per_day=200, value_picker=uniform_key_picker(16), seed=5
        ),
        cluster=ClusterConfig(
            n_shards=1, replication=2, selfheal=SelfHealConfig()
        ),
        device_factory=_faulty,
    )


def test_a_replica_retired_with_every_device_healthy_frees_its_wave():
    # Replica 1's one device is fully flaky for day W+1, then healthy:
    # the replica spends its retries and retires, and its device holds
    # nothing for it three transitions later.
    sim = _healthy_retired_case()
    w = sim.window
    sim.run_start()
    assert_bytes_conserved(sim)
    shard = sim.shards[0]
    victim = shard.replicas[1]
    injector = victim.device.injector
    injector.transient_read_rate = injector.transient_write_rate = 1.0
    sim.run_transition(w + 1)
    injector.transient_read_rate = injector.transient_write_rate = 0.0
    assert victim.health.state is BreakerState.RETIRED
    assert not victim.device.failed
    assert_bytes_conserved(sim)
    for day in range(w + 2, w + 5):
        sim.run_transition(day)
        assert_bytes_conserved(sim)
    assert victim.device.live_bytes == 0
    assert not victim.wave.bindings
    assert victim not in shard.replicas
    assert sim.obs.counters()["cluster.heal.retired.repair-failed"] == 1


def _two_step_dark_shard() -> ClusterSimulation:
    # One shard, r=2, REINDEX W=8 n=2, DEGRADE, no self-heal.
    return ClusterSimulation(
        lambda: scheme_by_name("REINDEX")(8, 2),
        make_store(12),
        queries=QueryWorkload(
            probes_per_day=6,
            scans_per_day=2,
            value_picker=lambda rng: rng.choice("abcdefgh"),
            seed=3,
        ),
        cluster=ClusterConfig(
            n_shards=1, replication=2, policy=OverlapPolicy.DEGRADE
        ),
        device_factory=_faulty,
    )


def test_a_dark_shard_reports_the_window_its_last_replica_held():
    sim = _two_step_dark_shard()
    sim.run_start()
    first, last = sim.shards[0].replicas
    first.device.injector.fail_device()  # before day 9
    sim.run_transition(9)
    sim.run_transition(10)
    held = set(last.wave.covered_days())
    assert held == set(range(3, 11))
    last.device.injector.fail_device()  # before day 11
    stats = sim.run_transition(11)
    assert stats.shards_unavailable == (0,)
    # Days 9 and 10 were held only by the last replica: they are missing
    # too, so the partial answer is never a wrong one.
    assert stats.missing_days == frozenset(range(4, 11))
    (result,) = sim.coordinator.probe_many([("a", 5, 10)]).results
    assert result.record_ids == ()
    assert result.missing_days == frozenset(range(5, 11))
    shard = sim.shards[0]
    assert not shard.replicas
    # Dark before the next day: the shard reads no device and holds no
    # bytes it can serve.
    sim.run_transition(12)
    metrics = shard.series.days[-1]
    assert (metrics.steady_bytes, metrics.constituent_bytes) == (0, 0)
    assert metrics.covered_days == frozenset()
    assert metrics.io.bytes_read == metrics.io.bytes_written == 0


def test_moving_a_retired_replica_is_refused():
    # Without a monitor a transient in serving retires a replica whose
    # device is healthy.
    sim = _two_step_dark_shard()
    sim.run_start()
    shard = sim.shards[0]
    first, second = shard.replicas
    first.device.injector.transient_read_rate = 1.0
    sim.coordinator.probe_many([("a", 1, 8)])
    first.device.injector.transient_read_rate = 0.0
    with pytest.raises(ClusterError, match="no replica 0"):
        sim.rebalance_shard(0, 1, replica_id=0)
    assert shard.replicas == [second]
    # Replica 1 is found by its id, not by its place in the list.
    report = sim.rebalance_shard(0, 0, replica_id=1)
    assert report.replica_id == 1
    assert second.device is sim.array.devices[0]


def test_a_rebuilt_replica_never_takes_a_retired_ones_id():
    sim = ClusterSimulation(
        lambda: scheme_by_name("REINDEX")(4, 2),
        make_store(10),
        cluster=ClusterConfig(
            n_shards=1, replication=2, selfheal=SelfHealConfig()
        ),
        device_factory=_faulty,
    )
    sim.run_start()
    shard = sim.shards[0]
    names = []
    for day in range(5, 9):
        # Kill the newest replica every other day; the healer replaces it
        # the next day.
        if day % 2:
            shard.replicas[-1].device.injector.fail_device()
        sim.run_transition(day)
        names.append([r.name for r in shard.replicas])
        assert_bytes_conserved(sim)
    assert names == [
        ["s0/r0"],
        ["s0/r0", "s0/r2"],
        ["s0/r0"],
        ["s0/r0", "s0/r3"],
    ]


# ----------------------------------------------------------------------
# The property: any retirement order
# ----------------------------------------------------------------------

W, N, LAST = 4, 2, 9
_CAUSES = ("dead", "flaky", "serving")


@st.composite
def _retirements(draw):
    """Per transition day, at most one retirement cause, aimed at the
    replica at a drawn place in the list and a drawn device of its span."""
    days = {}
    for day in range(W + 1, LAST + 1):
        if draw(st.booleans()):
            days[day] = (
                draw(st.sampled_from(_CAUSES)),
                draw(st.integers(0, 2)),
                draw(st.integers(0, 1)),
            )
    return days


@settings(
    max_examples=depth(12),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scheme=st.sampled_from(["REINDEX", "DEL"]),
    technique=st.sampled_from(
        [UpdateTechnique.SIMPLE_SHADOW, UpdateTechnique.IN_PLACE]
    ),
    replication=st.integers(1, 3),
    width=st.integers(1, 2),
    heal=st.booleans(),
    retirements=_retirements(),
    t1=st.integers(1, LAST),
    span=st.integers(0, W),
)
def test_retirement_orders_keep_bytes_ids_and_dark_windows(
    scheme, technique, replication, width, heal, retirements, t1, span
):
    sim = ClusterSimulation(
        lambda: scheme_by_name(scheme)(W, N),
        make_store(LAST),
        technique=technique,
        queries=QueryWorkload(
            probes_per_day=4,
            scans_per_day=1,
            value_picker=lambda rng: rng.choice("abcdefgh"),
            seed=3,
        ),
        cluster=ClusterConfig(
            n_shards=1,
            replication=replication,
            devices_per_replica=width,
            selfheal=SelfHealConfig() if heal else None,
        ),
        device_factory=_faulty,
    )
    shard = sim.shards[0]
    # Observe each retirement's window as the replica leaves.
    windows = []
    retire = Shard.retire

    def observed(self, replica, monitor, *, reason):
        assert replica in self.replicas
        windows.append(frozenset(replica.wave.covered_days()))
        retire(self, replica, monitor, reason=reason)

    seen = {}

    def check():
        assert_bytes_conserved(sim)
        for replica in shard.replicas:
            # One id, one replica, for the whole run.
            assert seen.setdefault(replica.name, replica) is replica

    with mock.patch.object(Shard, "retire", observed):
        sim.run_start()
        check()
        for day in range(W + 1, LAST + 1):
            cause = retirements.get(day)
            target = None
            if cause is not None and shard.replicas:
                kind, place, device = cause
                replica = shard.replicas[place % len(shard.replicas)]
                target = replica.span.devices[device % width].injector
            act = None
            if target is not None and kind == "dead":
                target.fail_device()
            elif target is not None and kind == "flaky":
                target.transient_read_rate = 1.0
                target.transient_write_rate = 1.0
            elif target is not None:

                def act(boundary, target=target):
                    if boundary.kind == "serve":
                        target.fail_device()

            drive(sim.day_steps(day), act)
            for device in sim.array.devices:
                device.injector.transient_read_rate = 0.0
                device.injector.transient_write_rate = 0.0
            check()

    event("dark" if not shard.replicas else "serving")
    if shard.replicas:
        return
    t2 = min(t1 + span, LAST)
    window = windows[-1]
    (result,) = sim.coordinator.probe_many([("a", t1, t2)]).results
    assert result.record_ids == ()
    assert result.missing_days == {d for d in window if t1 <= d <= t2}
    assert sim.result.days[-1].shards_unavailable == (0,)

"""The cluster's one serving rule, as a differential table.

Every answer the cluster gives runs through
``ClusterCoordinator._serve``: a coordinator batch, and every unit of
the simulated day loop.  The table below is the rule's specification.
Each cell serves every unit of one day twice, on twin clusters:

* **day loop** — the faults are armed at the day's ``"serve"`` boundary
  and the serving pass answers the day's units;
* **coordinator** — the twin turns the day fault-free, the same faults
  are armed, and each of the day's units is sent as one coordinator
  batch, with the monitor's clock set to the unit's arrival.

Both must land on the cell's expected missing days, retired replicas,
failover count, breaker states and the offline marks left on replicas
still in service.  The rows are the (fault, replication, monitor)
classes; scheme, batch size and policy never changed a verdict, so one
scheme and one batch size serve them all.  Two arrival columns:
``post`` (REINDEX, shadowing, nothing blocks) and ``mid`` (DEL in
place under ``DEGRADE``: units arriving while the day's in-place op
mutates ``I2`` skip it), where the day loop additionally misses
exactly the policy's days and the coordinator, serving after the turn,
does not.

Below the table, each bug the merged rule fixed has its own test.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation, SelfHealConfig
from repro.cluster.selfheal import BreakerState
from repro.core.boundary import drive
from repro.core.schemes import scheme_by_name
from repro.index.updates import UpdateTechnique
from repro.sim.querygen import QueryWorkload
from repro.sim.scheduler import OverlapPolicy
from repro.storage.faults import FaultInjector, FaultyDisk, RetryPolicy
from tests.conftest import make_store

W, N, LAST = 8, 4, 12
VALUES = "abcdefgh"
ALL = frozenset(range(LAST - W + 1, LAST + 1))
NONE = frozenset()
#: The constituent a stale offline mark lands on, and its days at LAST.
STALE, STALE_DAYS = "I3", frozenset({5, 6})
#: Days the overlap policy alone costs each column's day loop.
POLICY_DAYS = {"post": NONE, "mid": frozenset({11, 12})}

R0, R1 = "s0/r0", "s0/r1"
LIVE, OPEN, RETIRED = "live", "open", "retired"

#: (fault, r, monitor) -> (missing days, retired replicas, failovers,
#: breaker state per replica or None, offline marks per replica in
#: service).
TABLE = {
    ("kill-primary", 1, False): (ALL, {R0}, 1, None, ()),
    ("kill-primary", 1, True): (ALL, {R0}, 1, (RETIRED,), ()),
    ("kill-primary", 2, False): (NONE, {R0}, 1, None, (NONE,)),
    ("kill-primary", 2, True): (NONE, {R0}, 1, (RETIRED, LIVE), (NONE,)),
    ("kill-all", 1, False): (ALL, {R0}, 1, None, ()),
    ("kill-all", 1, True): (ALL, {R0}, 1, (RETIRED,), ()),
    ("kill-all", 2, False): (ALL, {R0, R1}, 2, None, ()),
    ("kill-all", 2, True): (ALL, {R0, R1}, 2, (RETIRED, RETIRED), ()),
    ("transient", 1, False): (ALL, {R0}, 1, None, ()),
    ("transient", 1, True): (ALL, set(), 0, (OPEN,), (NONE,)),
    ("transient", 2, False): (NONE, {R0}, 1, None, (NONE,)),
    ("transient", 2, True): (NONE, set(), 0, (OPEN, LIVE), (NONE, NONE)),
    ("stale", 1, False): (STALE_DAYS, set(), 0, None, ({STALE},)),
    ("stale", 1, True): (STALE_DAYS, set(), 0, (LIVE,), ({STALE},)),
    ("stale", 2, False): (NONE, set(), 0, None, ({STALE}, NONE)),
    ("stale", 2, True): (NONE, set(), 0, (LIVE, LIVE), ({STALE}, NONE)),
    ("none", 1, False): (NONE, set(), 0, None, (NONE,)),
    ("none", 1, True): (NONE, set(), 0, (LIVE,), (NONE,)),
    ("none", 2, False): (NONE, set(), 0, None, (NONE, NONE)),
    ("none", 2, True): (NONE, set(), 0, (LIVE, LIVE), (NONE, NONE)),
}


def _build(r, monitor, column="post", *, devices_per_replica=1):
    mid = column == "mid"
    return ClusterSimulation(
        lambda: scheme_by_name("DEL" if mid else "REINDEX")(W, N),
        make_store(LAST),
        technique=(
            UpdateTechnique.IN_PLACE if mid else UpdateTechnique.SIMPLE_SHADOW
        ),
        queries=QueryWorkload(
            probes_per_day=6,
            scans_per_day=2,
            value_picker=lambda rng: rng.choice(VALUES),
            seed=3,
        ),
        cluster=ClusterConfig(
            n_shards=1,
            replication=r,
            policy=OverlapPolicy.DEGRADE if mid else OverlapPolicy.WAIT,
            selfheal=(
                SelfHealConfig(retry=RetryPolicy(max_attempts=3))
                if monitor
                else None
            ),
            devices_per_replica=devices_per_replica,
        ),
        device_factory=lambda i: FaultyDisk(injector=FaultInjector(11 + i)),
    )


def _run_until_last(sim):
    sim.run_start()
    for day in range(W + 1, LAST):
        sim.run_transition(day)


def _arm(sim, fault):
    replicas = sim.shards[0].replicas
    if fault == "kill-primary":
        replicas[0].device.injector.fail_device()
    elif fault == "kill-all":
        for replica in replicas:
            replica.device.injector.fail_device()
    elif fault == "transient":
        replicas[0].device.injector.transient_read_rate = 0.9
    elif fault == "stale":
        replicas[0].wave.offline.add(STALE)


def _state(sim, replicas, missing, failovers):
    """The rule's outcome over ``replicas``, the shard's before the fault:
    those that retired have left the shard."""
    held = sim.shards[0].replicas
    monitor = sim._monitor
    return (
        frozenset(missing),
        {r.name for r in replicas if r not in held},
        failovers,
        None
        if monitor is None
        else tuple(r.health.state.value for r in replicas),
        tuple(frozenset(r.wave.offline) for r in held),
    )


def _day_loop(fault, r, monitor, column):
    sim = _build(r, monitor, column)
    _run_until_last(sim)
    replicas = sim.shards[0].replicas
    stats = drive(
        sim.day_steps(LAST),
        lambda b: _arm(sim, fault) if b.kind == "serve" else None,
    )
    return _state(sim, replicas, stats.missing_days, stats.failovers)


def _coordinator(fault, r, monitor, column):
    sim = _build(r, monitor, column)
    _run_until_last(sim)
    base = sim._clock_base
    stats = sim.run_transition(LAST)
    replicas = sim.shards[0].replicas
    _arm(sim, fault)
    units = sim.queries.day_requests(LAST, W)
    horizon = stats.maintenance_makespan_seconds * sim.config.arrival_stretch
    missing: set[int] = set()
    failovers = 0
    for i, unit in enumerate(units):
        if sim._monitor is not None:
            sim._monitor.now = base + horizon * i / len(units)
        serve = (
            sim.coordinator.probe_many
            if unit.kind == "probe"
            else sim.coordinator.scan_many
        )
        summary = serve(unit.specs).summary
        missing |= summary.missing_days
        failovers += summary.failovers
    return _state(sim, replicas, missing, failovers)


@pytest.mark.parametrize("column", ["post", "mid"])
@pytest.mark.parametrize(("fault", "r", "monitor"), sorted(TABLE))
def test_both_callers_follow_the_one_rule(fault, r, monitor, column):
    missing, retired, failovers, breakers, offline = TABLE[fault, r, monitor]
    offline = tuple(frozenset(marks) for marks in offline)
    want = (missing, retired, failovers, breakers, offline)
    assert _coordinator(fault, r, monitor, column) == want
    want_day = (missing | POLICY_DAYS[column], *want[1:])
    assert _day_loop(fault, r, monitor, column) == want_day


def test_the_mid_column_arrives_mid_transition():
    """The ``mid`` column's policy days are real blocking, not a fault."""
    sim = _build(1, False, "mid")
    _run_until_last(sim)
    stats = sim.run_transition(LAST)
    assert stats.missing_days == POLICY_DAYS["mid"]
    assert stats.queries_degraded > 0
    assert any(iv.blocking for iv in sim.shards[0].primary.intervals)


# ----------------------------------------------------------------------
# The bugs the merged rule fixed
# ----------------------------------------------------------------------


def _window_answers(sim):
    lo, hi = LAST - W + 1, LAST
    probes = sim.coordinator.probe_many([(v, lo, hi) for v in VALUES])
    return probes, sim.coordinator.scan(lo, hi)


def test_a_stale_offline_mark_never_retires_a_healthy_replica():
    sim = _build(2, False)
    sim.run(LAST)
    primary = sim.shards[0].replicas[0]
    primary.wave.offline.add(STALE)
    probes, scan = _window_answers(sim)
    assert not probes.summary.missing_days
    assert not scan.missing_days
    assert probes.summary.failovers == 0
    assert primary in sim.shards[0].replicas
    assert primary.wave.offline == {STALE}


def test_a_swallowed_transient_leaves_no_constituent_offline():
    """r = 1 under a monitor: the last replica's degraded call swallows
    the burst's transients; the marks are cleared and the breaker opens,
    so once the burst ends the answers are complete again."""
    sim = _build(1, True)
    sim.run(LAST)
    replica = sim.shards[0].primary
    injector = replica.device.injector
    injector.transient_read_rate = 0.9
    _window_answers(sim)
    assert not replica.wave.offline
    assert replica.health.state is BreakerState.OPEN
    injector.transient_read_rate = 0.0
    probes, scan = _window_answers(sim)
    assert not probes.summary.missing_days
    assert not scan.missing_days
    assert replica in sim.shards[0].replicas


def test_the_day_loop_fails_over_to_a_full_copy_instead_of_degrading():
    sim = _build(2, False)
    _run_until_last(sim)
    primary = sim.shards[0].replicas[0]

    def stale_at_serving(boundary):
        if boundary.kind == "serve":
            primary.wave.offline.add(STALE)

    stats = drive(sim.day_steps(LAST), stale_at_serving)
    assert stats.missing_days == frozenset()
    assert stats.queries_degraded == 0
    assert stats.failovers == 0
    assert primary in sim.shards[0].replicas


def test_aborted_time_is_billed_over_the_whole_span():
    """A primary spanning two devices dies two I/Os into its second
    device: the dying scan's charge on both devices is aborted time."""
    sim = _build(2, False, devices_per_replica=2)
    sim.run(LAST)
    primary = sim.shards[0].replicas[0]
    first, second = primary.span.devices
    second.injector.fail_device_after_ios = second.injector.stats.ios + 2
    before = [first.clock, second.clock]
    scan = sim.coordinator.scan_many([(LAST - W + 1, LAST)])
    charged = [first.clock - before[0], second.clock - before[1]]
    assert primary not in sim.shards[0].replicas
    assert charged[0] > 0.0 and charged[1] > 0.0
    assert scan.summary.aborted_seconds == pytest.approx(sum(charged))
    assert not scan.summary.missing_days


def test_a_dead_last_replica_retires_and_its_shard_answers_dark():
    """The one rule's choice for a dead device on the last live replica:
    the swallowed device failure retires the replica, as a raised one
    does, and the shard answers dark with its window days missing."""
    sim = _build(1, True)
    sim.run(LAST)
    replica = sim.shards[0].primary
    replica.device.injector.fail_device()
    probes, scan = _window_answers(sim)
    assert replica not in sim.shards[0].replicas
    assert replica.health.state is BreakerState.RETIRED
    assert probes.summary.failovers == 1
    assert probes.summary.shards_unavailable == (0,)
    assert scan.missing_days == ALL
    assert sim.obs.counters()["cluster.heal.retired.serving-fault"] == 1

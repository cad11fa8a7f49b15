"""The advisor engine end to end inside a live cluster simulation."""

from repro.advisor import AdvisorConfig
from repro.cluster import (
    BreakerState,
    ClusterConfig,
    ClusterSimulation,
    ElasticConfig,
    SelfHealConfig,
)
from repro.core.schemes import scheme_by_name
from repro.sim.querygen import QueryWorkload, uniform_key_picker
from tests.advisor.helpers import make_int_store

WINDOW = 6
LAST = WINDOW + 8


def _probe_heavy() -> QueryWorkload:
    return QueryWorkload(
        probes_per_day=200,
        value_picker=uniform_key_picker(16),
        seed=5,
    )


def _advisor(**overrides) -> AdvisorConfig:
    base = dict(
        observe_days=1,
        cooldown_days=30,
        amortization_days=30,
    )
    base.update(overrides)
    return AdvisorConfig(**base)


def _run(advisor, *, replication=1, last=LAST):
    # Probe-heavy traffic against a DEL/6 start: the model wants fewer
    # constituents, so the advisor must retune.
    scheme_cls = scheme_by_name("DEL")
    sim = ClusterSimulation(
        lambda: scheme_cls(WINDOW, WINDOW),
        make_int_store(last, domain=16, seed=3),
        queries=_probe_heavy(),
        cluster=ClusterConfig(
            n_shards=1,
            replication=replication,
            maintenance="lockstep",
            advisor=advisor,
        ),
    )
    sim.run(last)
    return sim


def _answers(sim):
    """The last window's probe and scan answers, canonicalised."""
    probes = [(v, LAST - WINDOW + 1, LAST) for v in range(1, 17)]
    scans = [(LAST - WINDOW + 1, LAST), (LAST, LAST)]
    out = []
    for r in sim.coordinator.probe_many(probes).results:
        out.append((sorted(r.entries), sorted(r.missing_days)))
    for r in sim.coordinator.scan_many(scans).results:
        out.append((sorted(r.entries), sorted(r.covered_days)))
    return out


class TestRetuneExecution:
    def test_probe_heavy_traffic_triggers_a_committed_retune(self):
        sim = _run(_advisor())
        total = sum(d.retunes for d in sim.result.days)
        assert total == 1
        assert sim.obs.counter("cluster.advisor.retunes").value == 1
        # The replica really is running the new design now.
        replica = sim.shards[0].replicas[0]
        assert replica.scheme is not None
        assert replica.scheme.n_indexes < WINDOW

    def test_decision_lands_the_day_after_it_is_made(self):
        sim = _run(_advisor())
        retune_days = [d.day for d in sim.result.days if d.retunes]
        # Decisions happen at day-end boundaries and execute at the start
        # of the NEXT day; the start day's traffic decides at earliest at
        # the end of day W, landing the retune on day W+1 or later.
        assert retune_days
        assert retune_days[0] >= WINDOW + 1

    def test_designs_are_reported_in_day_stats(self):
        sim = _run(_advisor())
        last = sim.result.days[-1]
        assert last.designs is not None
        (label,) = last.designs.values()
        scheme_name, n = label.rsplit("/", 1)
        assert scheme_name == "DEL"
        assert int(n) < WINDOW

    def test_retune_span_is_charged_to_the_day(self):
        sim = _run(_advisor())
        charged = [d for d in sim.result.days if d.retunes]
        assert charged
        assert all(d.retune_seconds > 0.0 for d in charged)
        assert all(
            d.maintenance_makespan_seconds >= d.retune_seconds
            for d in charged
        )

    def test_advisor_answers_match_the_static_twin(self):
        assert _answers(_run(_advisor())) == _answers(_run(None))


class TestBudget:
    def test_one_change_a_day_caps_execution(self):
        sim = _run(_advisor(), replication=2)
        for day in sim.result.days:
            assert day.retunes <= 1
        # Both replicas eventually converge, one day at a time.
        assert sum(d.retunes for d in sim.result.days) == 2

    def test_a_split_and_a_retune_run_one_a_day_in_queue_order(self):
        scheme_cls = scheme_by_name("DEL")
        sim = ClusterSimulation(
            lambda: scheme_cls(WINDOW, WINDOW),
            make_int_store(LAST, domain=16, seed=3),
            queries=_probe_heavy(),
            cluster=ClusterConfig(
                n_shards=1,
                maintenance="lockstep",
                advisor=_advisor(),
                elastic=ElasticConfig(autoscale=False, min_shards=1),
            ),
        )
        sim.run_start()
        day = WINDOW
        while not sim.changes:
            day += 1
            sim.run_transition(day)
        split = sim.request_split(0)
        assert [c.kind for c in sim.changes] == ["retune", "split"]
        first = sim.run_transition(day + 1)
        assert (first.retunes, first.reshards) == (1, 0)
        assert sim.changes[0] is split
        second = sim.run_transition(day + 2)
        assert (second.retunes, second.reshards) == (0, 1)
        assert second.n_shards == 2
        # The children run the retuned design, and answer as the
        # static twin does.
        assert all(s.scheme.n_indexes < WINDOW for s in sim.shards)
        for d in range(day + 3, LAST + 1):
            sim.run_transition(d)
        assert _answers(sim) == _answers(_run(None))


def _two_shards(*, selfheal=None) -> ClusterSimulation:
    scheme_cls = scheme_by_name("DEL")
    return ClusterSimulation(
        lambda: scheme_cls(WINDOW, WINDOW),
        make_int_store(LAST, domain=16, seed=3),
        queries=_probe_heavy(),
        cluster=ClusterConfig(
            n_shards=2,
            maintenance="lockstep",
            advisor=_advisor(),
            elastic=ElasticConfig(autoscale=False, min_shards=1),
            selfheal=selfheal,
        ),
    )


class TestRetuneFollowsItsReplica:
    """A queued retune, the planner's cooldown and the breaker name the
    replica object, so a split that renumbers its shard redirects none
    of them."""

    def test_a_retune_queued_behind_a_split_lands_on_its_own_replica(self):
        sim = _two_shards()
        left, upper = (shard.replicas[0] for shard in sim.shards)
        sim.request_split(0)
        sim.run_start()
        # Day W decided a retune for each shard, behind the split.
        assert [str(c) for c in sim.changes] == [
            "split of shard 0",
            "retune of shard 0 replica 0",
            "retune of shard 1 replica 0",
        ]
        split = sim.run_transition(WINDOW + 1)
        assert split.reshards == 1 and upper.shard_id == 2
        right_child = sim.shards[1].replicas[0]
        # Shard 0's replica left with its shard: its retune is refused
        # at no cost, and the retune decided for old shard 1 lands the
        # same day on it, now shard 2, not on the split's right child,
        # which holds its old position.
        landed = sim.run_transition(WINDOW + 2)
        assert (landed.retunes, landed.retunes_aborted) == (1, 1)
        assert landed.retune_deferred == "replica-gone"
        assert left.scheme is None
        assert upper.scheme is not None
        assert right_child.scheme is None
        assert sim.staged.journals[-1].subject["shard_id"] == 2

    def test_breaker_and_cooldown_follow_a_surviving_replica(self):
        sim = _two_shards(selfheal=SelfHealConfig())
        sim.run_start()
        for day in (WINDOW + 1, WINDOW + 2):
            assert sim.run_transition(day).retunes == 1
        survivor = sim.shards[1].replicas[0]
        assert survivor.scheme is not None
        monitor = sim._monitor
        for _ in range(monitor.breaker.failure_threshold):
            monitor.on_transient(survivor, now=monitor.now)
        health = survivor.health
        assert health.state is BreakerState.OPEN
        sim.request_split(0)
        split = sim.run_transition(WINDOW + 3)
        assert split.reshards == 1
        assert sim.shards[2].replicas[0] is survivor
        # The breaker is the survivor's own, renumbered with it; the
        # children, one at the survivor's old position, start clean.
        assert survivor.health is health and health.opens == 1
        children = [shard.replicas[0] for shard in sim.shards[:2]]
        assert all(c.health.opens == 0 for c in children)
        # The planner's cooldown stays with the replica it retuned.
        cooldowns = sim._planner._last_retune
        assert cooldowns.get(survivor) == WINDOW
        assert all(c not in cooldowns for c in children)


class TestJournal:
    def test_committed_retunes_leave_done_journals(self):
        snapshots = []
        scheme_cls = scheme_by_name("DEL")
        sim = ClusterSimulation(
            lambda: scheme_cls(WINDOW, WINDOW),
            make_int_store(LAST, domain=16, seed=3),
            queries=_probe_heavy(),
            cluster=ClusterConfig(
                n_shards=1,
                replication=1,
                maintenance="lockstep",
                advisor=_advisor(),
            ),
        )
        sim.staged.journal_sink = lambda j: snapshots.append(j.to_dict())
        sim.run(LAST)
        assert sum(d.retunes for d in sim.result.days) == 1
        (journal,) = sim.staged.journals
        assert journal.kind == "retune"
        assert journal.phase == "done"
        assert journal.subject["scheme_before"].startswith("DEL/6")
        assert snapshots[-1] == journal.to_dict()
        phases = [j["phase"] for j in snapshots]
        for required in ("planned", "copying", "copied", "catchup",
                         "swapped", "done"):
            assert required in phases

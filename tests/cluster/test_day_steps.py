"""The day as a boundary stream: ``ClusterSimulation.day_steps(day)``.

A day yields a :class:`~repro.core.boundary.Boundary` before every
staged-change step, every rebuild step and every plan op, in the order
the day runs them, then one ``"serve"`` boundary before the serving
pass.  ``run_transition`` and ``turn`` are that stream run to its end, so
driving it with an action that does nothing changes nothing; a crash
thrown in at a rebuild's boundary resumes the rebuild in place, as a
crash point on its spare does.
"""

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    ElasticConfig,
    SelfHealConfig,
)
from repro.core.boundary import drive, fault_at
from repro.core.oracle import check_against_twin
from repro.core.persistence import wave_to_json
from repro.core.schemes import scheme_by_name
from repro.sim.querygen import QueryWorkload, uniform_key_picker
from repro.storage.faults import FaultInjector, FaultyDisk
from repro.workloads.keys import build_int_store

W, N, LAST = 6, 2, 11


def _build(*, selfheal=False, elastic=False, injectors=None):
    def device(i):
        disk = FaultyDisk(injector=FaultInjector(i))
        if injectors is not None:
            injectors[i] = disk.injector
        return disk

    return ClusterSimulation(
        lambda: scheme_by_name("REINDEX")(W, N),
        build_int_store(5, LAST, 12, 600, 64, first_id=1),
        queries=QueryWorkload(
            probes_per_day=6, value_picker=uniform_key_picker(600), seed=2
        ),
        cluster=ClusterConfig(
            n_shards=3,
            replication=2,
            partitioner="range",
            range_splits=(200, 400),
            selfheal=SelfHealConfig() if selfheal else None,
            elastic=ElasticConfig(autoscale=False) if elastic else None,
        ),
        device_factory=device,
    )


def _state(sim):
    return [
        (replica.name, wave_to_json(replica.wave), replica.device.clock)
        for shard in sim.shards
        for replica in shard.replicas
    ]


def _answers_agree(sim, twin, day):
    lo = day - W + 1
    specs = [(v, lo, day) for v in range(1, 601, 37)]

    def answers(cluster):
        coordinator = cluster.coordinator
        return [*coordinator.probe_many(specs), coordinator.scan(lo, day)]

    return all(
        check_against_twin(a, b).status == "ok"
        for a, b in zip(answers(sim), answers(twin))
    )


def test_a_driven_day_is_run_transition():
    sim, twin = _build(), _build()
    sim.run_start()
    twin.run_start()
    for day in range(W + 1, LAST + 1):
        seen = []
        stats = drive(sim.day_steps(day), seen.append)
        assert stats == twin.run_transition(day)
        assert _state(sim) == _state(twin)
        # Every replica's plan ops, one boundary each, then the serving.
        assert seen[-1].kind == "serve" and seen[-1].day == day
        ops = [b for b in seen if b.kind == "op"]
        assert len(ops) == len(seen) - 1
        for shard in sim.shards:
            plan = [
                b for b in ops if b.shard == shard.shard_id and b.replica == 0
            ]
            assert [b.ordinal for b in plan] == list(range(len(plan)))
            assert plan[0].devices == (shard.replicas[0].device,)


def test_a_day_yields_staged_then_rebuild_then_plan_boundaries():
    injectors = {}
    sim = _build(selfheal=True, elastic=True, injectors=injectors)
    sim.run_start()
    victim = sim.shards[0].primary
    victim.device.injector.fail_device()
    sim.run_transition(W + 1)  # the kill is observed; the replica retires
    sim.request_split(1)

    # Healing outranks the split, which defers while shard 0 is short:
    # the rebuild's copies and catch-up ops, then the plans, then serving.
    seen = []
    stats = drive(sim.day_steps(W + 2), seen.append)
    assert stats.rebuilds == 1 and stats.reshard_deferred == "under-replicated"
    rebuilt = sim.shards[0].replicas[-1].replica_id
    kinds = [b.kind for b in seen]
    assert "split" not in kinds and kinds[0] == "rebuild"
    catchup = [b for b in seen if b.kind == "op" and b.replica == rebuilt]
    plans = [b for b in seen if b.kind == "op" and b.replica != rebuilt]
    assert catchup and plans
    assert seen.index(catchup[-1]) < seen.index(plans[0])
    assert kinds[-1] == "serve"

    # The next day the split runs first, its catch-up ops among its steps.
    seen = []
    stats = drive(sim.day_steps(W + 3), seen.append)
    assert stats.reshards == 1
    split = [b for b in seen if b.kind == "split"]
    assert [b.ordinal for b in split] == list(range(len(split)))
    assert split[0].name == "plan"
    assert [b.name for b in split[-2:]] == ["swap", "cleanup"]
    after = seen[seen.index(split[-1]) + 1 :]
    assert {b.kind for b in after[:-1]} == {"op"} and after[-1].kind == "serve"


def test_a_crash_at_a_rebuild_boundary_resumes_in_place():
    injectors = {}
    sim = _build(selfheal=True, injectors=injectors)
    twin = _build()
    sim.run_start()
    twin.run_start()
    victim = sim.shards[0].primary
    victim.device.injector.fail_device()
    sim.run_transition(W + 1)
    twin.run_transition(W + 1)
    seen = []

    def act(boundary):
        seen.append(boundary)
        fault_at("rebuild", 1)(boundary)

    stats = drive(sim.day_steps(W + 2), act)
    twin.run_transition(W + 2)
    assert stats.rebuilds == 1 and stats.rebuilds_failed == 0
    copies = [b for b in seen if b.kind == "rebuild"]
    # The crashed copy's boundary comes again, one ordinal on.
    assert copies[1].name == copies[2].name
    assert [b.ordinal for b in copies] == list(range(len(copies)))
    assert sim.obs.counters()["cluster.heal.rebuild_crash_recoveries"] == 1
    assert len(sim.shards[0].replicas) == 2
    for day in range(W + 3, LAST + 1):
        sim.run_transition(day)
        twin.run_transition(day)
    assert _answers_agree(sim, twin, LAST)


def test_a_crash_at_a_rebuild_catchup_op_is_recovered_from_its_journal():
    injectors = {}
    sim = _build(selfheal=True, injectors=injectors)
    twin = _build()
    sim.run_start()
    twin.run_start()
    victim = sim.shards[0].primary
    victim.device.injector.fail_device()
    sim.run_transition(W + 1)
    twin.run_transition(W + 1)
    rebuilt = max(r.replica_id for r in sim.shards[0].replicas) + 1

    def act(boundary):
        if boundary.kind == "op" and boundary.replica == rebuilt:
            fault_at("op", 0)(boundary)

    stats = drive(sim.day_steps(W + 2), act)
    twin.run_transition(W + 2)
    assert stats.rebuilds == 1
    assert sim.obs.counters()["cluster.heal.rebuild_crash_recoveries"] == 1
    for day in range(W + 3, LAST + 1):
        sim.run_transition(day)
        twin.run_transition(day)
    assert _answers_agree(sim, twin, LAST)

"""One fault matrix for every kind of staged change, at unit scale.

``split``, ``merge`` and ``retune`` run through one
:class:`~repro.core.staged.StagedChangeRunner`, so its contract is
checked with the kind as one more input: for every step boundary a
fault-free dry run enumerates × the boundary stream's ``FAULTS``, placed
by ``fault_at`` (a crash thrown into the day's stream there, a kill or a
space limit on the step's first device; the ``plan`` step names none) —
a fault strictly before the swap aborts with the old
topology / design serving and the change retried to completion exactly
once; a fault at ``cleanup`` commits (a crash rolls forward once) — plus
the transient-retry loop's two exits and the rule that a change's crash
points die with it.  The exhaustive seeded split/merge matrix is
:mod:`repro.bench.topology_chaos`.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.advisor import AdvisorConfig
from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    ElasticConfig,
    SelfHealConfig,
)
from repro.core.boundary import FAULTS, drive, fault_at
from repro.core.records import Record, RecordStore
from repro.core.schemes import scheme_by_name
from repro.core.staged import ChangeAborted, StagedChangeRunner
from repro.sim.querygen import QueryWorkload, uniform_key_picker
from repro.storage.faults import CrashPoint, FaultInjector, FaultyDisk

KINDS = ("split", "merge", "retune")

#: The reshard world (``tests/cluster/test_elastic.py``'s): REINDEX over
#: three range shards.  The retune world: a probe-heavy workload against
#: one DEL/6 shard, which the advisor wants on fewer constituents.
RESHARD_WINDOW, RETUNE_WINDOW = 4, 6
DOMAIN = {"split": 600, "merge": 600, "retune": 16}


def _store(last_day: int, *, domain: int, per_day: int) -> RecordStore:
    rng = random.Random(3)
    store = RecordStore()
    rid = 0
    for day in range(1, last_day + 1):
        store.add_records(
            day,
            [
                Record(rid := rid + 1, day, (rng.randint(1, domain),), nbytes=60)
                for _ in range(per_day)
            ],
        )
    return store


def _make_sim(
    kind: str, last_day: int, *, staged: bool, heal: bool, spare_factory=None
) -> ClusterSimulation:
    """The world for ``kind``; ``staged=False`` is its fault-free static
    twin (no elastic, no advisor, plain disks)."""
    serial = [0]

    def device(_: int) -> FaultyDisk:
        serial[0] += 1
        return FaultyDisk(injector=FaultInjector(900 + serial[0]))

    selfheal = (
        SelfHealConfig(rebuild=False, spare_factory=spare_factory)
        if heal or spare_factory is not None
        else None
    )
    if kind == "retune":
        scheme = functools.partial(
            scheme_by_name("DEL"), RETUNE_WINDOW, RETUNE_WINDOW
        )
        queries = QueryWorkload(
            probes_per_day=200, value_picker=uniform_key_picker(16), seed=5
        )
        cluster = ClusterConfig(
            n_shards=1,
            maintenance="lockstep",
            selfheal=selfheal,
            advisor=AdvisorConfig(
                observe_days=1,
                cooldown_days=2,
                amortization_days=30,
            )
            if staged
            else None,
        )
    else:
        scheme = functools.partial(scheme_by_name("REINDEX"), RESHARD_WINDOW, 2)
        queries = QueryWorkload(
            probes_per_day=8, value_picker=uniform_key_picker(600), seed=21
        )
        cluster = ClusterConfig(
            n_shards=3,
            partitioner="range",
            range_splits=(200, 400),
            selfheal=selfheal,
            elastic=ElasticConfig(autoscale=False) if staged else None,
        )
    return ClusterSimulation(
        scheme,
        _store(last_day, domain=DOMAIN[kind], per_day=8 if kind == "retune" else 10),
        queries=queries,
        cluster=cluster,
        device_factory=device if staged else None,
    )


def _answers(sim: ClusterSimulation, kind: str, day: int):
    window = RETUNE_WINDOW if kind == "retune" else RESHARD_WINDOW
    lo = day - window + 1
    values = range(1, DOMAIN[kind] + 1, 1 if kind == "retune" else 7)
    out = [
        (sorted(r.entries), sorted(r.missing_days))
        for r in sim.coordinator.probe_many([(v, lo, day) for v in values]).results
    ]
    out += [
        (sorted(r.entries), sorted(r.covered_days))
        for r in sim.coordinator.scan_many([(lo, day), (day, day)]).results
    ]
    return out


@dataclass
class World:
    """One kind's simulation, run up to the eve of its change."""

    kind: str
    sim: ClusterSimulation
    runner: StagedChangeRunner
    change_day: int
    last_day: int
    #: ``ChangeAborted``\\ s the runner raised (the simulation absorbs them).
    aborts: list[ChangeAborted]

    def turn(self, day: int, hook: Callable | None = None) -> None:
        """Run one day; ``hook`` sees that day's boundaries of the kind."""

        def act(boundary):
            if hook is not None and boundary.kind == self.kind:
                hook(boundary)

        drive(self.sim.day_steps(day), act)

    def finish(self) -> None:
        for day in range(self.sim.result.days[-1].day + 1, self.last_day + 1):
            self.turn(day)

    @property
    def window(self) -> int:
        return RETUNE_WINDOW if self.kind == "retune" else RESHARD_WINDOW

    def applied(self) -> int:
        days = self.sim.result.days
        if self.kind == "retune":
            return sum(d.retunes for d in days)
        return sum(d.reshards for d in days)

    def aborted_today(self) -> int:
        stats = self.sim.result.days[-1]
        if self.kind == "retune":
            return stats.retunes_aborted
        return stats.reshards_aborted

    def serving(self):
        """What an abort must leave untouched."""
        sim = self.sim
        if self.kind == "retune":
            replica = sim.shards[0].replicas[0]
            return (replica.device, sim.result.days[-1].designs)
        return (len(sim.shards), sim.coordinator.topology_version)


@functools.lru_cache(maxsize=None)
def _retune_day() -> int:
    """The day the advisor's first decision executes, from a dry run."""
    last = RETUNE_WINDOW + 4
    sim = _make_sim("retune", last, staged=True, heal=False)
    sim.run(last)
    (day,) = [d.day for d in sim.result.days if d.retunes]
    return day


def make_world(kind: str, *, heal: bool = False, spare_factory=None) -> World:
    if kind == "retune":
        change_day = _retune_day()
        last_day = change_day + 4 + RETUNE_WINDOW
    else:
        change_day = RESHARD_WINDOW + 2
        last_day = change_day + 1 + RESHARD_WINDOW
    sim = _make_sim(
        kind, last_day, staged=True, heal=heal, spare_factory=spare_factory
    )
    runner = sim.staged
    aborts: list[ChangeAborted] = []
    steps = runner.steps

    def recording_steps(change, *, day):
        try:
            return (yield from steps(change, day=day))
        except ChangeAborted as exc:
            aborts.append(exc)
            raise

    runner.steps = recording_steps
    world = World(kind, sim, runner, change_day, last_day, aborts)
    sim.run_start()
    for day in range(world.window + 1, change_day):
        world.turn(day)
    if kind == "split":
        sim.request_split(1)
    elif kind == "merge":
        sim.request_merge(1)
    else:
        assert sim.changes, "the advisor decided nothing on the eve"
    return world


@functools.lru_cache(maxsize=None)
def twin_answers(kind: str) -> dict[int, list]:
    """Fault-free static twin: the answers every cell must reproduce."""
    world = make_world(kind)
    sim = _make_sim(kind, world.last_day, staged=False, heal=False)
    window = world.window
    sim.run_start()
    out = {}
    for day in range(window + 1, world.last_day + 1):
        sim.run_transition(day)
        out[day] = _answers(sim, kind, day)
    return out


@functools.lru_cache(maxsize=None)
def step_names(kind: str) -> tuple[str, ...]:
    """Dry-run the change fault-free; return its step names in order."""
    world = make_world(kind)
    names: list[str] = []
    world.turn(world.change_day, lambda step: names.append(step.name))
    assert world.applied() == 1 and not world.aborts
    return tuple(names)


def _cells():
    for kind in KINDS:
        for ordinal, name in enumerate(step_names(kind)):
            for fault in FAULTS:
                phase = name.split(":")[0]
                yield pytest.param(
                    kind, ordinal, name, fault,
                    id=f"{kind}-step{ordinal}-{phase}-{fault}",
                )


class TestStepNames:
    def test_every_kind_walks_the_same_boundaries(self):
        for kind in KINDS:
            names = step_names(kind)
            assert names[0] == "plan"
            assert names[-2:] == ("swap", "cleanup")
            middle = names[1:-2]
            copies = [n for n in middle if n.startswith("copy:")]
            catchups = [n for n in middle if n.startswith("catchup:")]
            assert copies and catchups
            assert list(middle) == copies + catchups

    def test_reshard_step_names_are_the_chaos_harness_contract(self):
        assert step_names("merge") == (
            "plan", "copy:s1/r0:I1", "copy:s1/r0:I2", "catchup:s1/r0",
            "swap", "cleanup",
        )
        assert step_names("split")[1:5] == (
            "copy:s1/r0:I1", "copy:s1/r0:I2", "copy:s2/r0:I1", "copy:s2/r0:I2",
        )


class TestFaultMatrix:
    @pytest.mark.parametrize("kind, ordinal, name, fault", _cells())
    def test_fault_at_step(self, kind, ordinal, name, fault):
        world = make_world(kind)
        sim, runner = world.sim, world.runner
        before = world.serving()
        fired: list[str] = []
        world.turn(world.change_day, fault_at(kind, ordinal, fault, fired))
        for device in sim.array.devices:
            device.injector.space_limit_bytes = None
        assert fired in ([], [name])
        journal = runner.journals[-1]
        assert journal.kind == kind

        if not fired:
            # No device at this boundary for the fault to bite.
            assert world.applied() == 1 and journal.phase == "done"
        elif name == "cleanup":
            # At or after the swap record: committed.  A crash rolls
            # forward once; a dead or full *old* device is just dropped.
            assert world.applied() == 1 and not world.aborts
            assert journal.phase == "done"
            recoveries = sim.obs.counters().get(
                f"{_prefix(kind)}.crash_recoveries", 0
            )
            assert recoveries == (1 if fault == "crash" else 0)
        else:
            # Strictly before the swap record: aborted, nothing moved.
            expected = {
                "crash": "crash", "kill": "device-failure", "space": "space",
            }[fault]
            assert [e.reason for e in world.aborts] == [expected]
            assert world.aborts[0].kind == kind
            assert world.aborts[0].__cause__ is not None
            assert world.applied() == 0 and world.aborted_today() == 1
            assert journal.phase == "aborted" and not journal.committed
            # Aborted after staging: it stays at the head of the queue
            # and is retried the next day (world.finish() below).
            assert sim.changes[0].kind == kind
            assert world.serving() == before
            for index in journal.target_devices:
                device = sim.array.devices[index]
                if not device.injector.device_failed:
                    assert device.live_bytes == 0
            assert _answers(sim, kind, world.change_day) == (
                twin_answers(kind)[world.change_day]
            )

        # Whatever happened, the change lands exactly once and the
        # cluster answers like its fault-free static twin.
        world.finish()
        assert world.applied() == 1
        assert runner.journals[-1].phase == "done"
        assert len(world.aborts) <= 1
        assert not any(d.shards_unavailable for d in sim.result.days)
        assert _answers(sim, kind, world.last_day) == (
            twin_answers(kind)[world.last_day]
        )


def _prefix(kind: str) -> str:
    return "cluster.advisor" if kind == "retune" else "cluster.elastic"


def _first_copy(kind: str) -> int:
    return next(
        i for i, n in enumerate(step_names(kind)) if n.startswith("copy:")
    )


@pytest.mark.parametrize("kind", KINDS)
class TestTransientRetry:
    """The one transient-retry loop, entered through every kind."""

    def _flaky_target(self, world: World, heal_after: int | None):
        """Make the first copy's target fail every write; heal it after
        ``heal_after`` cluster-level retries (``None``: never)."""
        ordinal = _first_copy(world.kind)
        seen: dict = {}

        def hook(step):
            if step.ordinal == ordinal:
                seen["target"] = step.devices[0]
                step.devices[0].injector.transient_write_rate = 1.0
                seen["clock"] = step.devices[0].clock

        monitor = world.sim._monitor
        note_retry = monitor.note_retry

        def noting(attempt):
            note_retry(attempt)
            if heal_after is not None and attempt >= heal_after:
                seen["target"].injector.transient_write_rate = 0.0

        monitor.note_retry = noting
        return hook, seen

    def test_a_transient_that_clears_lets_the_change_commit(self, kind):
        world = make_world(kind, heal=True)
        hook, seen = self._flaky_target(world, heal_after=1)
        world.turn(world.change_day, hook)
        assert world.applied() == 1 and not world.aborts
        counters = world.sim.obs.counters()
        assert counters["cluster.heal.retries"] == 1
        retry = world.sim._monitor.retry
        # The backoff was charged to the target's clock, on top of the
        # device's own (exhausted) retries.
        assert seen["target"].clock - seen["clock"] > retry.delay_before_retry(1)
        world.finish()
        assert world.applied() == 1
        assert _answers(world.sim, kind, world.last_day) == (
            twin_answers(kind)[world.last_day]
        )

    def test_a_transient_that_never_clears_aborts_flaky(self, kind):
        world = make_world(kind, heal=True)
        hook, seen = self._flaky_target(world, heal_after=None)
        world.turn(world.change_day, hook)
        assert [e.reason for e in world.aborts] == ["flaky"]
        assert world.applied() == 0
        retry = world.sim._monitor.retry
        assert (
            world.sim.obs.counters()["cluster.heal.retries"]
            == retry.max_attempts - 1
        )
        assert world.runner.journals[-1].phase == "aborted"
        assert seen["target"].live_bytes == 0


@pytest.mark.parametrize("kind", KINDS)
class TestCrashPointsDieWithTheChange:
    """A crash point armed against a change that completes must not
    ambush an ordinary maintenance pass days later."""

    def test_committed_change_leaves_no_armed_crash_behind(self, kind):
        # Armed on the build target: at the catch-up boundary for the
        # reshards, by the spare factory for the retune.
        after_ios = {"split": 5, "merge": 5, "retune": 40}[kind]

        def spare(ordinal: int) -> FaultyDisk:
            crash = CrashPoint(after_ios=after_ios) if ordinal == 0 else None
            return FaultyDisk(injector=FaultInjector(700 + ordinal, crash=crash))

        if kind == "retune":
            world = make_world(kind, spare_factory=spare)
            hook = None
        else:
            world = make_world(kind)

            def hook(step):
                if step.name.startswith("catchup:"):
                    step.devices[0].injector.arm_crash(
                        CrashPoint(after_ios=after_ios)
                    )

        world.turn(world.change_day, hook)
        assert world.applied() == 1 and not world.aborts
        # WINDOW ordinary days on the devices the change built.
        world.finish()
        assert world.applied() == 1
        assert _answers(world.sim, kind, world.last_day) == (
            twin_answers(kind)[world.last_day]
        )

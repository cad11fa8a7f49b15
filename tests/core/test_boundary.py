"""The boundary stream's driver, ``drive``, and its one fault
vocabulary, ``fault_at``.

A step is a generator that yields a :class:`Boundary` before each piece
of work and returns its result.  ``drive`` runs one to its end; an
exception the action raises is thrown into the stream at that boundary,
where the step may handle it as it would a fault there.
"""

import pytest

from repro.core.boundary import FAULTS, Boundary, drive, fault_at
from repro.errors import OutOfSpaceError, SimulatedCrash
from repro.storage.faults import FaultInjector, FaultyDisk


def _counting(n, log):
    """A step of ``n`` boundaries that logs what it does and survives
    one crash per boundary by redoing that boundary."""
    done = 0
    while done < n:
        try:
            yield Boundary(1, "op", f"op{done}", done)
        except SimulatedCrash:
            log.append(f"recovered at {done}")
            continue
        log.append(f"did {done}")
        done += 1
    return done


def test_drive_returns_the_value_and_acts_at_every_boundary():
    log, seen = [], []
    assert drive(_counting(3, log), seen.append) == 3
    assert [b.ordinal for b in seen] == [0, 1, 2]
    assert log == ["did 0", "did 1", "did 2"]


def test_drive_without_an_action_exhausts_the_stream():
    log = []
    assert drive(_counting(2, log)) == 2
    assert log == ["did 0", "did 1"]


def test_an_exception_the_action_raises_is_thrown_in_at_that_boundary():
    log = []
    fired = []

    def act(boundary):
        if boundary.ordinal == 1 and not fired:
            fired.append(boundary)
            raise SimulatedCrash("here")

    assert drive(_counting(3, log), act) == 3
    assert log == ["did 0", "recovered at 1", "did 1", "did 2"]


def test_an_exception_the_stream_does_not_handle_propagates():
    def plain():
        yield Boundary(1, "op", "a", 0)
        raise AssertionError("the stream went on past its crash")

    with pytest.raises(SimulatedCrash):
        drive(plain(), fault_at("op", 0))


def test_crash_at_matches_kind_and_ordinal_only():
    act = fault_at("split", 2)
    act(Boundary(1, "split", "copy", 1))
    act(Boundary(1, "op", "BuildOp", 2))
    with pytest.raises(SimulatedCrash, match="split boundary 2"):
        act(Boundary(1, "split", "swap", 2))


def _disk_with_bytes(nbytes=100):
    disk = FaultyDisk(injector=FaultInjector(1))
    disk.allocate(nbytes)
    return disk


def test_a_kill_fails_the_first_device_the_step_names():
    target, source = _disk_with_bytes(), _disk_with_bytes()
    fired = []
    act = fault_at("split", 1, "kill", fired)
    act(Boundary(1, "split", "plan", 0, devices=(target,)))
    assert not target.injector.device_failed and fired == []
    act(Boundary(1, "split", "copy", 1, devices=(target, source)))
    assert target.injector.device_failed
    assert not source.injector.device_failed
    assert fired == ["copy"]


def test_a_space_fault_lets_the_next_allocation_overflow():
    target = _disk_with_bytes(100)
    fired = []
    fault_at("merge", 0, "space", fired)(
        Boundary(1, "merge", "copy", 0, devices=(target,))
    )
    target.allocate(1)
    with pytest.raises(OutOfSpaceError):
        target.allocate(1)
    assert fired == ["copy"]


@pytest.mark.parametrize("fault", ["kill", "space"])
def test_a_device_fault_at_a_boundary_naming_no_device_does_nothing(fault):
    fired = []
    fault_at("split", 0, fault, fired)(Boundary(1, "split", "plan", 0))
    assert fired == []


def test_fired_names_each_boundary_where_the_fault_acted():
    fired = []
    act = fault_at("op", 2, "crash", fired)
    act(Boundary(1, "op", "BuildOp", 1))
    with pytest.raises(SimulatedCrash):
        act(Boundary(1, "op", "AddOp", 2))
    assert fired == ["AddOp"]


def test_an_unknown_fault_is_refused():
    assert FAULTS == ("crash", "kill", "space")
    with pytest.raises(ValueError, match="unknown fault"):
        fault_at("op", 0, "flood")

"""The boundary stream's driver: ``drive`` and ``crash_at``.

A step is a generator that yields a :class:`Boundary` before each piece
of work and returns its result.  ``drive`` runs one to its end; an
exception the action raises is thrown into the stream at that boundary,
where the step may handle it as it would a fault there.
"""

import pytest

from repro.core.boundary import Boundary, crash_at, drive
from repro.errors import SimulatedCrash


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
        drive(plain(), crash_at("op", 0))


def test_crash_at_matches_kind_and_ordinal_only():
    act = crash_at("split", 2)
    act(Boundary(1, "split", "copy", 1))
    act(Boundary(1, "op", "BuildOp", 2))
    with pytest.raises(SimulatedCrash, match="split boundary 2"):
        act(Boundary(1, "split", "swap", 2))

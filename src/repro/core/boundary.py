"""The boundary stream: a day's maintenance as a generator of boundaries.

Every step of a day — a plan op on one replica, a step of a staged change
(split, merge, retune), a step of a replica rebuild, the start of the
serving pass — is a generator that yields a :class:`Boundary` just before
it does its work and returns its result.  The callers compose with
``yield from``, so ``ClusterSimulation.day_steps(day)`` yields every
boundary of the day in the order the day runs them, and
``ClusterSimulation.turn(day)`` is nothing but that stream run to its end.

:func:`drive` runs a stream.  Its optional action sees each boundary; an
exception the action raises is raised *inside* the stream at that
boundary, exactly where a fault there would surface.  :func:`fault_at`
is the one fault vocabulary (:data:`FAULTS`): a
:class:`~repro.errors.SimulatedCrash` thrown in between two steps, or a
kill or space exhaustion on the device the step is about to touch.  The
crash matrix crashes at op boundary ``k``, the topology matrix places
each fault at each staged step, and the chaos soak, whose kills follow a
schedule rather than a boundary's device, kills at the serving
boundary.  There are no hooks to install and none to forget to remove.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from ..errors import SimulatedCrash
from ..storage.disk import SimulatedDisk
from ..storage.faults import FaultyDisk


@dataclass(frozen=True, slots=True)
class Boundary:
    """The point just before one step of a day runs.

    ``kind`` says what is stepping: ``"op"`` (a plan op), a staged change
    kind (``"split"``, ``"merge"``, ``"retune"``), ``"rebuild"`` or
    ``"serve"``.  ``name`` is the step about to run — the op's class, or a
    staged / rebuild step (``plan``, ``copy:s{g}/r{i}:{name}``,
    ``catchup:s{g}/r{i}``, ``swap``, ``cleanup``) — and ``ordinal`` counts
    the steps of the same run already behind it (``ops`` done, for an op).
    ``shard`` / ``replica`` name the replica stepping, when one is;
    ``devices`` are the devices the step is about to touch, target first.
    """

    day: int
    kind: str
    name: str
    ordinal: int
    shard: int | None = None
    replica: int | None = None
    devices: tuple[SimulatedDisk, ...] = ()


#: A step: yields boundaries, returns its result.
Steps = Generator[Boundary, None, Any]


def drive(
    steps: Steps, act: Callable[[Boundary], object] | None = None
) -> Any:
    """Run ``steps`` to its end and return its result.

    ``act(boundary)`` runs at every boundary.  An exception it raises is
    thrown into the stream at that boundary: the step handles it as it
    would a fault there, or it propagates out of ``drive``.
    """
    try:
        boundary = next(steps)
        while True:
            if act is not None:
                try:
                    act(boundary)
                except Exception as exc:
                    boundary = steps.throw(exc)
                    continue
            boundary = next(steps)
    except StopIteration as stop:
        return stop.value


#: The faults an action can place at a boundary.
FAULTS = ("crash", "kill", "space")


def fault_at(
    kind: str,
    ordinal: int,
    fault: str = "crash",
    fired: list[str] | None = None,
) -> Callable[[Boundary], None]:
    """Return an action placing ``fault`` at the ``ordinal``-th boundary
    of ``kind``: ``crash`` kills the process between two steps; ``kill``
    fails the step's first device; ``space`` caps that device at its live
    bytes plus one (the caller lifts the cap after the day).  A device
    fault where no device is named does nothing.  ``fired`` collects the
    names of the boundaries where the fault acted."""
    if fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; known: {', '.join(FAULTS)}")

    def act(boundary: Boundary) -> None:
        if boundary.kind != kind or boundary.ordinal != ordinal:
            return
        if fault != "crash" and not boundary.devices:
            return
        if fired is not None:
            fired.append(boundary.name)
        if fault == "crash":
            raise SimulatedCrash(
                f"crash at {kind} boundary {ordinal} ({boundary.name})"
            )
        device = boundary.devices[0]
        assert isinstance(device, FaultyDisk), "a device fault needs a faulty disk"
        if fault == "kill":
            device.injector.fail_device()
        else:
            device.injector.space_limit_bytes = device.live_bytes + 1

    return act

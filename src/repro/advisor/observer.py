"""Per-shard workload observation: each shard tallies its own traffic.

An advised cluster gives every :class:`~repro.cluster.shard.Shard` a
:class:`TrafficWindow` (``shard.traffic``).  The serving loop hands it
each (sub)unit the shard serves; the day loop closes its day at every
day boundary; the planner reads the last ``observe_days`` closed days
condensed into a :class:`ShardObservation`.  A day holds:

* ``probes`` — a :class:`collections.Counter` of the probe *values*
  served (its total is the model's ``Probe_num`` unit);
* ``scans`` — segment scans served (every scan reaches every shard);
* ``newest`` — the subset of scans whose range is one day (SCAM-style
  registration checks, the model's ``Scan_idx = 1``).

The window is the shard's own object, so a split or merge that
renumbers the shards moves no history between them; the shards a
reshard creates start from :meth:`TrafficWindow.handed_on`, their
parents' days restricted to the values they now own.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..sim.querygen import QueryUnit, ScanUnit


@dataclass(frozen=True)
class ShardObservation:
    """One shard's workload, averaged over the observation window.

    Attributes:
        shard_id: The shard observed.
        days: Days of data in the window (< ``observe_days`` during
            warm-up; the planner abstains until the window is full).
        probes_per_day: Probe values served per day (``Probe_num``).
        scans_per_day: Segment scans served per day (``Scan_num``).
        newest_fraction: Fraction of scans that touched only the newest
            day; >= 0.5 infers ``scan_target="newest"``.
    """

    shard_id: int
    days: int
    probes_per_day: float
    scans_per_day: float
    newest_fraction: float

    @property
    def scan_target(self) -> str:
        """Return the inferred model ``scan_target`` for this mix."""
        return "newest" if self.newest_fraction >= 0.5 else "all"


@dataclass
class TrafficDay:
    """One day of a shard's traffic: probe values, scans, newest scans."""

    probes: Counter = field(default_factory=Counter)
    scans: int = 0
    newest: int = 0


class TrafficWindow:
    """A shard's last ``observe_days`` closed days plus the open one."""

    def __init__(self, observe_days: int) -> None:
        self.days: deque[TrafficDay] = deque(maxlen=observe_days)
        self.today = TrafficDay()

    def observe(self, unit: QueryUnit) -> None:
        """Tally one (sub)unit this shard served today."""
        today = self.today
        if isinstance(unit, ScanUnit):
            today.scans += unit.requests
            if unit.t1 == unit.t2:
                today.newest += unit.requests
        else:
            today.probes.update(unit.values)

    def end_day(self) -> None:
        """Close today: bank it, rolling the oldest day off."""
        self.days.append(self.today)
        self.today = TrafficDay()

    def observation(self, shard_id: int) -> ShardObservation:
        """Return the window's workload summary for shard ``shard_id``."""
        days = max(1, len(self.days))
        probes = sum(sum(day.probes.values()) for day in self.days)
        scans = sum(day.scans for day in self.days)
        newest = sum(day.newest for day in self.days)
        return ShardObservation(
            shard_id=shard_id,
            days=len(self.days),
            probes_per_day=probes / days,
            scans_per_day=scans / days,
            newest_fraction=newest / scans if scans > 0 else 0.0,
        )

    @classmethod
    def handed_on(
        cls, parents: list[TrafficWindow], owns: Callable[[Any], bool]
    ) -> TrafficWindow:
        """Return a reshard child's window, exact, day by day: the
        parents' probes of the values ``owns`` accepts, summed, and the
        first parent's scans (every scan reaches every shard).  A reshard
        swaps before the day's serving, so today starts empty."""
        observe_days = parents[0].days.maxlen
        assert observe_days is not None
        child = cls(observe_days)
        for days in zip(*(parent.days for parent in parents)):
            probes: Counter = Counter()
            for day in days:
                probes.update({v: n for v, n in day.probes.items() if owns(v)})
            child.days.append(TrafficDay(probes, days[0].scans, days[0].newest))
        return child

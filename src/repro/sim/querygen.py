"""Daily query workloads for the measured simulation.

Models the paper's query mixes: a number of timed index probes over the
window (SCAM's copy-detection chunks, a WSE's user queries) plus a number
of segment scans (SCAM's registration checks over the newest day, TPC-D's
analytical sweeps over the whole window).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable
from zlib import crc32

from ..core.wave import WaveIndex
from ..errors import WorkloadError


@dataclass(frozen=True)
class UnitOutcome:
    """What one executed query unit cost and lost.

    ``seconds`` is exactly the quantity :meth:`QueryWorkload.run_day`
    accumulates for the unit; ``missing_days`` is non-empty only for
    degraded executions that skipped offline constituents.
    """

    seconds: float
    requests: int
    missing_days: frozenset[int] = frozenset()


@dataclass(frozen=True)
class ProbeUnit:
    """One schedulable probe call: a single probe or one batched chunk.

    Executing all of a day's units in order is, by construction, the same
    sequence of wave-index calls :meth:`QueryWorkload.run_day` makes —
    that identity is what the overlapped scheduler's serialized-equivalence
    guarantee rests on.
    """

    values: tuple[Any, ...]
    t1: int
    t2: int
    batched: bool

    @property
    def requests(self) -> int:
        """Return how many logical query requests the unit serves."""
        return len(self.values)

    def needed_constituents(self, wave: WaveIndex) -> set[str]:
        """Return the constituent names whose days intersect the range."""
        return {
            name
            for name in wave.constituents
            if (index := wave.bindings.get(name)) is not None
            and any(self.t1 <= d <= self.t2 for d in index.time_set)
        }

    def execute(self, wave: WaveIndex, *, degraded: bool = False) -> UnitOutcome:
        """Run the unit against ``wave``; return its measured outcome."""
        if not self.batched:
            result = wave.timed_index_probe(
                self.values[0], self.t1, self.t2, degraded=degraded
            )
            return UnitOutcome(result.seconds, 1, result.missing_days)
        batch = wave.probe_many(
            [(value, self.t1, self.t2) for value in self.values],
            degraded=degraded,
        )
        missing: set[int] = set()
        for result in batch:
            missing.update(result.missing_days)
        return UnitOutcome(batch.seconds, len(self.values), frozenset(missing))


@dataclass(frozen=True)
class ScanUnit:
    """One schedulable scan call: a single scan or one batched chunk."""

    count: int
    t1: int
    t2: int
    batched: bool

    @property
    def requests(self) -> int:
        """Return how many logical query requests the unit serves."""
        return self.count

    def needed_constituents(self, wave: WaveIndex) -> set[str]:
        """Return the constituent names whose days intersect the range."""
        return {
            name
            for name in wave.constituents
            if (index := wave.bindings.get(name)) is not None
            and any(self.t1 <= d <= self.t2 for d in index.time_set)
        }

    def execute(self, wave: WaveIndex, *, degraded: bool = False) -> UnitOutcome:
        """Run the unit against ``wave``; return its measured outcome."""
        if not self.batched:
            result = wave.timed_segment_scan(self.t1, self.t2, degraded=degraded)
            return UnitOutcome(result.seconds, 1, result.missing_days)
        batch = wave.scan_many(
            [(self.t1, self.t2)] * self.count, degraded=degraded
        )
        missing: set[int] = set()
        for result in batch:
            missing.update(result.missing_days)
        return UnitOutcome(batch.seconds, self.count, frozenset(missing))


#: A schedulable day unit: one physical wave-index call.
QueryUnit = ProbeUnit | ScanUnit


@dataclass(frozen=True)
class QueryWorkload:
    """A day's query stream against the wave index.

    Attributes:
        probes_per_day: TimedIndexProbes issued per day.
        scans_per_day: TimedSegmentScans issued per day.
        value_picker: Given an RNG, returns a search value to probe.
        scan_newest_only: If ``True``, scans cover only the newest day
            (SCAM's registration check); otherwise the whole window.
        seed: Master seed; each day derives its own stream.
        batch_size: Requests served per batched call.  1 (the default)
            issues each query individually, the paper's serving model;
            larger values group requests through
            :meth:`~repro.core.wave.WaveIndex.probe_many` /
            :meth:`~repro.core.wave.WaveIndex.scan_many`, amortizing seeks
            across the batch.  The query *stream* is identical either way.
    """

    probes_per_day: int = 0
    scans_per_day: int = 0
    value_picker: Callable[[random.Random], Any] | None = None
    scan_newest_only: bool = False
    seed: int = 0
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.probes_per_day < 0 or self.scans_per_day < 0:
            raise WorkloadError("query counts must be >= 0")
        if self.probes_per_day > 0 and self.value_picker is None:
            raise WorkloadError("probes_per_day > 0 requires a value_picker")
        if self.batch_size < 1:
            raise WorkloadError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )

    def day_requests(self, day: int, window: int) -> list[QueryUnit]:
        """Return the day's query stream as ordered, schedulable units.

        Each unit is exactly one wave-index call (a probe, a scan, or one
        batched chunk of either); executing them in order performs the
        same call sequence as :meth:`run_day`.  The cluster's serving pass
        (:class:`~repro.cluster.ClusterSimulation`) assigns each unit an
        arrival time on the day's shared timeline.
        """
        # crc32, not hash(): builtin string hashing is salted per process
        # (PYTHONHASHSEED), which would make the stream — and every bench
        # artifact built on it — irreproducible across runs.
        rng = random.Random(crc32(f"{self.seed}:queries:{day}".encode()))
        lo, hi = day - window + 1, day
        values = [
            self.value_picker(rng)  # type: ignore[misc]
            for _ in range(self.probes_per_day)
        ]
        scan_lo = hi if self.scan_newest_only else lo
        units: list[QueryUnit] = []
        if self.batch_size == 1:
            units.extend(
                ProbeUnit((value,), lo, hi, batched=False) for value in values
            )
            units.extend(
                ScanUnit(1, scan_lo, hi, batched=False)
                for _ in range(self.scans_per_day)
            )
            return units
        for start in range(0, len(values), self.batch_size):
            chunk = tuple(values[start : start + self.batch_size])
            units.append(ProbeUnit(chunk, lo, hi, batched=True))
        for start in range(0, self.scans_per_day, self.batch_size):
            count = min(self.batch_size, self.scans_per_day - start)
            units.append(ScanUnit(count, scan_lo, hi, batched=True))
        return units

    def run_day(self, wave: WaveIndex, day: int, window: int) -> float:
        """Execute the day's queries; return their simulated seconds."""
        return sum(
            (unit.execute(wave).seconds for unit in self.day_requests(day, window)),
            0.0,
        )


@dataclass(frozen=True)
class SpikedWorkload:
    """A base workload with a sudden localized hot spot layered on top.

    From ``spike_day`` on (inclusive, until ``spike_until`` if set), each
    day's stream gains ``(spike_factor - 1) x probes_per_day`` extra
    probes drawn from ``hot_picker`` — a 4x spike on one partition range
    is ``spike_factor=4`` with a picker confined to that range.  The
    base stream is untouched and the extra probes are appended after it,
    so pre-spike days are bit-identical to the base workload and the
    elastic benchmark's control run shares the exact same stream.

    Duck-types the :meth:`QueryWorkload.day_requests` surface the
    cluster simulation consumes.
    """

    base: QueryWorkload
    spike_day: int
    hot_picker: Callable[[random.Random], Any]
    spike_factor: float = 4.0
    spike_until: int | None = None

    def __post_init__(self) -> None:
        if self.spike_factor < 1.0:
            raise WorkloadError(
                f"spike_factor must be >= 1, got {self.spike_factor}"
            )
        if self.spike_until is not None and self.spike_until < self.spike_day:
            raise WorkloadError(
                f"spike_until ({self.spike_until}) precedes "
                f"spike_day ({self.spike_day})"
            )

    @property
    def seed(self) -> int:
        """Return the base workload's master seed."""
        return self.base.seed

    def extra_probes(self, day: int) -> int:
        """Return how many hot-spot probes the spike adds on ``day``."""
        if day < self.spike_day:
            return 0
        if self.spike_until is not None and day > self.spike_until:
            return 0
        return round((self.spike_factor - 1.0) * self.base.probes_per_day)

    def day_requests(self, day: int, window: int) -> list[QueryUnit]:
        """Return the base stream plus the day's hot-spot probes."""
        units = self.base.day_requests(day, window)
        extra = self.extra_probes(day)
        if extra == 0:
            return units
        rng = random.Random(crc32(f"{self.base.seed}:spike:{day}".encode()))
        lo, hi = day - window + 1, day
        batch = self.base.batch_size
        values = [self.hot_picker(rng) for _ in range(extra)]
        if batch == 1:
            units.extend(
                ProbeUnit((value,), lo, hi, batched=False)
                for value in values
            )
            return units
        for start in range(0, len(values), batch):
            chunk = tuple(values[start : start + batch])
            units.append(ProbeUnit(chunk, lo, hi, batched=True))
        return units


@dataclass(frozen=True)
class WorkloadPhase:
    """One regime of a drifting workload, active from ``start_day`` on."""

    start_day: int
    workload: QueryWorkload


@dataclass(frozen=True)
class DriftingWorkload:
    """A workload whose probe/scan mix shifts through phases over time.

    The advisor benchmark's drift generator: each day is served by the
    phase whose ``start_day`` most recently passed (e.g. probe-heavy →
    scan-heavy → mixed), and ``volume_ramp`` grows the day's request
    counts by that fraction per day since the first phase began — the
    volume signal the autoscaler and advisor both watch.  Every phase
    derives its stream from its own workload's seed, so a given
    (phases, day) pair is bit-reproducible and any two runs over the
    same drift see the exact same request sequence.

    Duck-types the :meth:`QueryWorkload.day_requests` surface the
    cluster simulation consumes.
    """

    phases: tuple[WorkloadPhase, ...]
    volume_ramp: float = 0.0

    def __post_init__(self) -> None:
        if not self.phases:
            raise WorkloadError("a drifting workload needs >= 1 phase")
        starts = [phase.start_day for phase in self.phases]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise WorkloadError(
                f"phase start days must be strictly increasing, got {starts}"
            )
        if self.volume_ramp < 0.0:
            raise WorkloadError(
                f"volume_ramp must be >= 0, got {self.volume_ramp}"
            )

    @property
    def seed(self) -> int:
        """Return the first phase's master seed."""
        return self.phases[0].workload.seed

    def phase_for(self, day: int) -> WorkloadPhase:
        """Return the phase serving ``day`` (the first, before any start)."""
        active = self.phases[0]
        for phase in self.phases:
            if phase.start_day <= day:
                active = phase
        return active

    def volume_factor(self, day: int) -> float:
        """Return the day's volume multiplier under the ramp."""
        elapsed = max(0, day - self.phases[0].start_day)
        return 1.0 + self.volume_ramp * elapsed

    def day_requests(self, day: int, window: int) -> list[QueryUnit]:
        """Return the active phase's stream, counts scaled by the ramp."""
        import dataclasses

        workload = self.phase_for(day).workload
        factor = self.volume_factor(day)
        if factor != 1.0:
            workload = dataclasses.replace(
                workload,
                probes_per_day=round(workload.probes_per_day * factor),
                scans_per_day=round(workload.scans_per_day * factor),
            )
        return workload.day_requests(day, window)


def zipf_value_picker(vocabulary: int, s: float = 1.0) -> Callable[[random.Random], str]:
    """Return a picker drawing word values the way the text workload does.

    Probed values follow the same Zipf skew as the indexed words, so hot
    words hit big buckets — matching real query traffic against real text.
    """
    from ..workloads.zipf import ZipfSampler

    def pick(rng: random.Random) -> str:
        sampler = ZipfSampler(vocabulary, s, seed=rng.randrange(1 << 30))
        return f"w{sampler.sample()}"

    return pick


def uniform_key_picker(domain: int) -> Callable[[random.Random], int]:
    """Return a picker drawing uniform integer keys (TPC-D SUPPKEY style)."""
    if domain < 1:
        raise WorkloadError(f"domain must be >= 1, got {domain}")

    def pick(rng: random.Random) -> int:
        return rng.randint(1, domain)

    return pick

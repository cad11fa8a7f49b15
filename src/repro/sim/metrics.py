"""Per-shard metrics the day loop records: one :class:`DayMetrics` a day."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.executor import PhaseSeconds
from ..storage.pagecache import PageCacheSnapshot
from ..storage.stats import IOSnapshot


@dataclass(frozen=True)
class DayMetrics:
    """Measured outcome of one simulated day on the real substrate.

    ``io`` and ``cache`` hold the day's *deltas* of the device's I/O and
    page-cache counters (``None`` when the driver predates them or no
    cache is attached), so per-day dashboards can show seeks, bytes, and
    hit rates next to the phase timings.
    """

    day: int
    seconds: PhaseSeconds
    query_seconds: float
    steady_bytes: int
    constituent_bytes: int
    peak_bytes: int
    length_days: int
    covered_days: frozenset[int]
    io: IOSnapshot | None = None
    cache: PageCacheSnapshot | None = None

    @property
    def total_work_seconds(self) -> float:
        """Return maintenance plus query seconds for the day."""
        return self.seconds.total + self.query_seconds

    @property
    def cache_hits(self) -> int:
        """Return the day's page-cache hits (0 without a cache)."""
        return self.cache.hits if self.cache is not None else 0

    @property
    def cache_misses(self) -> int:
        """Return the day's page-cache misses (0 without a cache)."""
        return self.cache.misses if self.cache is not None else 0


@dataclass
class SimulationResult:
    """Accumulated metrics over a whole run."""

    window: int
    n_indexes: int
    scheme_name: str
    technique: str
    days: list[DayMetrics] = field(default_factory=list)

    def steady_days(self, warmup: int = 0) -> list[DayMetrics]:
        """Return per-day metrics after skipping ``warmup`` transitions.

        The start day (index 0) is always skipped: it builds the whole
        window at once and is not representative of daily maintenance.
        """
        return self.days[1 + warmup :]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    #
    # Each steady-window average returns 0.0 when the run is too short to
    # have any steady days (<= 1 + warmup days recorded): a short run has
    # no steady-state behaviour to average, and callers plotting curves
    # want a number, not a ZeroDivisionError.

    def avg_transition_seconds(self, warmup: int = 0) -> float:
        """Return the mean transition time over steady days (0.0 if none)."""
        days = self.steady_days(warmup)
        if not days:
            return 0.0
        return sum(d.seconds.transition for d in days) / len(days)

    def max_peak_bytes(self) -> int:
        """Return the worst space peak over the whole run (0 if empty)."""
        return max((d.peak_bytes for d in self.days), default=0)

    def max_length_days(self) -> int:
        """Return the maximum wave-index length (0 if the run is empty)."""
        return max((d.length_days for d in self.days), default=0)

    # ------------------------------------------------------------------
    # Cache aggregates
    # ------------------------------------------------------------------

    def total_cache_hits(self) -> int:
        """Return page-cache hits summed over the whole run."""
        return sum(d.cache_hits for d in self.days)

    def total_cache_misses(self) -> int:
        """Return page-cache misses summed over the whole run."""
        return sum(d.cache_misses for d in self.days)

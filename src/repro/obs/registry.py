"""Counter and histogram registry for simulation observability.

A serving system is only as debuggable as its metrics.  This registry is
the substrate-side analogue of a production metrics endpoint: cheap named
counters for monotonic totals (I/Os, cache hits, queries served) and
histograms for distributions (per-request latency, batch sizes), all
snapshot-able into plain dicts for JSON benchmark artifacts.

Simulated quantities — seconds from the simulated disk clock, not the
wall — go into exact :class:`Histogram`\\ s, so runs are deterministic
and the numbers land unchanged in ``BENCH_*.json`` files.  Wall-clock
serving metrics, observed per request for as long as a server runs, go
into fixed-memory :class:`LogHistogram`\\ s instead.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate


@dataclass
class Counter:
    """A monotonically increasing named total."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: amount must be >= 0")
        self.value += amount


def _rank(q: float, n: int) -> int:
    """Return the 0-based nearest-rank position of the ``q``-quantile."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    return min(n - 1, max(0, math.ceil(q * n) - 1))


def _nearest_rank(ordered: list[float], q: float) -> float:
    """Return the ``q``-quantile (nearest-rank) of a sorted list."""
    rank = _rank(q, len(ordered))
    return ordered[rank] if ordered else 0.0


@dataclass
class Histogram:
    """A distribution of observed values with exact quantiles.

    Observations are kept verbatim (simulation scales are modest), so
    quantiles are exact rather than bucket-approximated.
    """

    name: str
    values: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return math.fsum(self.values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.values else 0.0

    @property
    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def quantile(self, q: float) -> float:
        """Return the ``q``-quantile (nearest-rank) of the observations."""
        return _nearest_rank(sorted(self.values), q)

    def summary(self) -> dict[str, float]:
        """Return count/mean/percentile fields for JSON artifacts."""
        # One sort for all three percentiles.  min/max stay their own
        # scans: the ends of the sorted list differ from them between
        # 0.0 and -0.0, and artifacts are compared byte for byte.
        ordered = sorted(self.values)
        total = self.total
        return {
            "count": self.count,
            "total": total,
            "mean": total / self.count if ordered else 0.0,
            "min": self.min,
            "p50": _nearest_rank(ordered, 0.50),
            "p95": _nearest_rank(ordered, 0.95),
            "p99": _nearest_rank(ordered, 0.99),
            "max": self.max,
        }


#: :class:`LogHistogram`'s bucket geometry, module-level because
#: ``observe`` runs several times a request.  Bucket ``i`` is in slot
#: ``i + _LOG_OFFSET``; slot 0 holds zero and negative values.
_LOG_ERROR = 0.01
_LOG_LOWEST = 1e-9
_LOG_HIGHEST = 1e9
_LOG_GAMMA = (1 + _LOG_ERROR) / (1 - _LOG_ERROR)
_LOG_SCALE = 1 / math.log(_LOG_GAMMA)
_LOG_OFFSET = 1 - math.ceil(math.log(_LOG_LOWEST) * _LOG_SCALE)
_LOG_SLOTS = math.ceil(math.log(_LOG_HIGHEST) * _LOG_SCALE) + _LOG_OFFSET + 1


class LogHistogram:
    """A distribution in fixed memory: log-spaced buckets, exact totals.

    :class:`Histogram`'s read surface for metrics observed per request
    for as long as a server runs, where keeping every observation would
    grow memory and ``summary()`` cost with the requests served.  Memory
    is one list of ``SLOTS`` counts, allocated at construction, and
    ``summary()`` is one pass over it.

    ``count``, ``min`` and ``max`` are exact, and ``total`` is the
    observations summed in arrival order at full precision.  A quantile
    is the bucket of the nearest-rank observation, reported as the
    bucket's centre clamped into ``[min, max]``: for a positive
    observation in ``[LOWEST, HIGHEST]`` it is within ``RELATIVE_ERROR``
    of :class:`Histogram`'s exact quantile (bucket ``i`` holds
    ``(g**(i-1), g**i]`` with ``g = (1 + e) / (1 - e)``, and its centre
    ``2 g**i / (g + 1)`` is within ``e`` of anything in it).  Smaller
    positive values share the lowest bucket and larger ones the highest.
    Zero and negative values share a bucket of their own, reported as 0
    clamped into ``[min, max]`` — exact when they are all zero.
    """

    RELATIVE_ERROR = _LOG_ERROR
    LOWEST = _LOG_LOWEST
    HIGHEST = _LOG_HIGHEST
    SLOTS = _LOG_SLOTS

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._counts = [0] * _LOG_SLOTS

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value > _LOG_HIGHEST:
            slot = _LOG_SLOTS - 1
        elif value > _LOG_LOWEST:
            slot = math.ceil(math.log(value) * _LOG_SCALE) + _LOG_OFFSET
        elif value > 0.0:
            slot = 1
        else:
            slot = 0
        self._counts[slot] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Return the ``q``-quantile (nearest-rank, bucketed)."""
        return self._at(list(accumulate(self._counts)), q)

    def _at(self, cumulative: list[int], q: float) -> float:
        rank = _rank(q, self.count)
        if not self.count:
            return 0.0
        slot = bisect_right(cumulative, rank)
        centre = (
            2 * _LOG_GAMMA ** (slot - _LOG_OFFSET) / (_LOG_GAMMA + 1)
            if slot
            else 0.0
        )
        return min(max(centre, self._min), self._max)

    def summary(self) -> dict[str, float]:
        """Return :meth:`Histogram.summary`'s fields."""
        cumulative = list(accumulate(self._counts))
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "p50": self._at(cumulative, 0.50),
            "p95": self._at(cumulative, 0.95),
            "p99": self._at(cumulative, 0.99),
            "max": self.max,
        }


class SlidingWindow:
    """A bounded window of recent observations with exact quantiles.

    Where :class:`Histogram` keeps everything it ever saw (right for a
    benchmark artifact), a sliding window forgets: only the latest
    ``capacity`` observations matter.  That is the shape online
    controllers need — the hedging client tracks recent p95 latency to
    pick its hedge delay, and the AIMD dispatcher watches recent p95 to
    decide whether to grow or back off — where decade-old samples would
    anchor the controller to a regime that no longer exists.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._values: deque[float] = deque(maxlen=capacity)

    def observe(self, value: float) -> None:
        """Record one observation, evicting the oldest past capacity."""
        self._values.append(value)

    def clear(self) -> None:
        """Forget every observation (a fresh control interval)."""
        self._values.clear()

    @property
    def count(self) -> int:
        return len(self._values)

    def quantile(self, q: float) -> float:
        """Return the ``q``-quantile (nearest-rank) of the window."""
        return _nearest_rank(sorted(self._values), q)


class CounterWindow:
    """A point-in-time baseline of named counters; :meth:`delta` measures
    what happened since.

    Counters are monotonic totals, so a per-interval consumer (the
    per-day cluster stats) needs the *difference* across an interval,
    not the running value.  The named counters are created on demand, so
    one that first fires inside the interval still reports a full delta.
    """

    def __init__(self, registry: "MetricsRegistry", names: tuple[str, ...]) -> None:
        self._registry = registry
        self._baseline = {name: registry.counter(name).value for name in names}

    def delta(self, name: str) -> float:
        """Return how much ``name`` grew since the window opened."""
        current = self._registry._counters.get(name)
        value = current.value if current is not None else 0.0
        return value - self._baseline[name]


class MetricsRegistry:
    """A flat namespace of counters and histograms.

    ``counter(name)``/``histogram(name)``/``log_histogram(name)`` create
    on first use and return the same instance afterwards, so call sites
    never need to pre-declare what they measure.  A reader that only
    reads a histogram asks ``histogram(name)`` whichever kind it is.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram | LogHistogram] = {}

    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the counter called ``name``."""
        found = self._counters.get(name)
        if found is None:
            if name in self._histograms:
                raise ValueError(f"{name!r} is already a histogram")
            found = self._counters[name] = Counter(name)
        return found

    def histogram(self, name: str) -> Histogram | LogHistogram:
        """Return the histogram called ``name``, of whichever kind made
        it, creating an exact :class:`Histogram` if there is none."""
        found = self._histograms.get(name)
        if found is None:
            if name in self._counters:
                raise ValueError(f"{name!r} is already a counter")
            found = self._histograms[name] = Histogram(name)
        return found

    def log_histogram(self, name: str) -> LogHistogram:
        """Return (creating if needed) the bounded histogram ``name``."""
        found = self._histograms.get(name)
        if found is None:
            if name in self._counters:
                raise ValueError(f"{name!r} is already a counter")
            found = self._histograms[name] = LogHistogram(name)
        elif not isinstance(found, LogHistogram):
            raise ValueError(f"{name!r} is already an exact histogram")
        return found

    def counters(self) -> dict[str, float]:
        """Return counter values by name."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def window(self, *names: str) -> CounterWindow:
        """Open a :class:`CounterWindow` over ``names``."""
        return CounterWindow(self, names)

    def snapshot(self) -> dict[str, object]:
        """Return every metric as plain JSON-serialisable data."""
        return {
            "counters": self.counters(),
            "histograms": {
                name: h.summary()
                for name, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop all metrics (a fresh serving epoch)."""
        self._counters.clear()
        self._histograms.clear()

"""AIMD adaptive concurrency for the admission dispatcher pool.

PR 8 fixed the dispatcher count at ``max_concurrency`` — correct at one
calibrated load, wrong everywhere else: too few dispatchers waste the
backend when it is healthy, too many pile latency onto a struggling one.
This module closes the loop.  An :class:`AimdController` watches the
latency of recently completed requests in a :class:`SlidingWindow` and
adjusts a concurrency *limit* the way TCP adjusts its congestion window:

* **Additive increase** — while the observed p95 stays under the
  latency target, grow the limit by one per evaluation interval, probing
  for headroom.
* **Multiplicative decrease** — the moment the p95 crosses the target,
  cut the limit by ``backoff_ratio``, shedding queued pressure fast.

The target can be absolute (``target_p95_s``) or relative: with a
``tolerance`` the controller learns the best p95 it has ever seen at low
concurrency (the *floor*) and backs off whenever the current p95
exceeds ``tolerance x floor`` — the gradient view, which needs no
pre-measured service time.

The controller is pure arithmetic on an injected clock.  The admission
controller owns the asyncio side: dispatchers with index >= the limit
park on a condition variable until the limit grows back.  When
``AdmissionConfig.adaptive`` is ``None`` (the default) none of this
code runs and the dispatcher pool behaves exactly as in PR 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FrontendError
from ..obs import MetricsRegistry, SlidingWindow


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning knobs for the AIMD concurrency controller.

    Attributes:
        min_concurrency: Lower clamp for the limit; at least one
            dispatcher always runs.
        max_concurrency: Upper clamp (the PR 8 fixed pool size is the
            natural ceiling).
        target_p95_s: Absolute p95 latency target.  When > 0, the
            controller backs off whenever windowed p95 exceeds it.
        tolerance: Relative target: back off when windowed p95 exceeds
            ``tolerance`` times the best p95 observed so far.  Used when
            ``target_p95_s`` is 0; ignored otherwise.
        backoff_ratio: Multiplicative decrease factor in (0, 1).
        interval_s: Seconds between controller evaluations.
        min_samples: Completions required in the window before a verdict
            counts; fewer and the interval is a no-op (no blind growth
            on idle links).
        window: Sliding-window capacity for latency observations.
    """

    min_concurrency: int = 1
    max_concurrency: int = 8
    target_p95_s: float = 0.0
    tolerance: float = 2.0
    backoff_ratio: float = 0.5
    interval_s: float = 0.05
    min_samples: int = 5
    window: int = 128

    def __post_init__(self) -> None:
        if self.min_concurrency < 1:
            raise FrontendError(
                f"min_concurrency must be >= 1, got {self.min_concurrency}"
            )
        if self.max_concurrency < self.min_concurrency:
            raise FrontendError(
                "max_concurrency must be >= min_concurrency, got "
                f"{self.max_concurrency} < {self.min_concurrency}"
            )
        if self.target_p95_s < 0:
            raise FrontendError(
                f"target_p95_s must be >= 0, got {self.target_p95_s}"
            )
        if self.target_p95_s == 0.0 and self.tolerance <= 1.0:
            raise FrontendError(
                f"tolerance must be > 1 in gradient mode, got {self.tolerance}"
            )
        if not 0.0 < self.backoff_ratio < 1.0:
            raise FrontendError(
                f"backoff_ratio must be in (0, 1), got {self.backoff_ratio}"
            )
        if self.interval_s <= 0:
            raise FrontendError(
                f"interval_s must be > 0, got {self.interval_s}"
            )
        if self.min_samples < 1:
            raise FrontendError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.window < self.min_samples:
            raise FrontendError(
                f"window must be >= min_samples, got {self.window}"
            )


class AimdController:
    """Additive-increase / multiplicative-decrease concurrency limit.

    Pure state machine: :meth:`record` feeds completed-request latencies,
    :meth:`maybe_evaluate` re-derives the limit once per interval on the
    injected clock and returns it.  Publishing to asyncio (waking parked
    dispatchers) is the caller's job.
    """

    def __init__(
        self,
        config: AdaptiveConfig,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        self.metrics = metrics
        self.limit = config.max_concurrency
        self._window = SlidingWindow(config.window)
        self._floor: float | None = None
        self._last_eval: float | None = None
        self.increases = 0
        self.decreases = 0

    def record(self, latency_s: float) -> None:
        """Feed one completed request's latency into the window."""
        self._window.observe(latency_s)

    def maybe_evaluate(self, now: float) -> int:
        """Re-derive the limit if an interval elapsed; return the limit."""
        if self._last_eval is None:
            self._last_eval = now
            return self.limit
        if now - self._last_eval < self.config.interval_s:
            return self.limit
        self._last_eval = now
        if self._window.count < self.config.min_samples:
            return self.limit
        p95 = self._window.quantile(0.95)
        # Track the best p95 ever seen: the uncongested service floor
        # the gradient target is relative to.
        if self._floor is None or p95 < self._floor:
            self._floor = p95
        if self._over_target(p95):
            shrunk = int(self.limit * self.config.backoff_ratio)
            new_limit = max(self.config.min_concurrency, shrunk)
            if new_limit < self.limit:
                self.decreases += 1
                self._count("serve.adaptive.decrease")
        else:
            new_limit = min(self.config.max_concurrency, self.limit + 1)
            if new_limit > self.limit:
                self.increases += 1
                self._count("serve.adaptive.increase")
        self.limit = new_limit
        # A verdict consumes its evidence: the next interval judges only
        # completions that ran under the new limit.
        self._window.clear()
        if self.metrics is not None:
            self.metrics.log_histogram("serve.adaptive.limit").observe(
                float(self.limit)
            )
        return self.limit

    def _over_target(self, p95: float) -> bool:
        if self.config.target_p95_s > 0.0:
            return p95 > self.config.target_p95_s
        assert self._floor is not None
        return p95 > self.config.tolerance * self._floor

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def snapshot(self) -> dict[str, float]:
        """Controller state for ``stats()``-style introspection."""
        return {
            "limit": float(self.limit),
            "increases": float(self.increases),
            "decreases": float(self.decreases),
            "floor_p95_s": float(self._floor or 0.0),
            "window_count": float(self._window.count),
        }


__all__ = ["AdaptiveConfig", "AimdController"]

"""Client-side resilience: hedged requests, retry budgets, failover.

The serving tier's tail is a client problem as much as a server one.
This module wraps N per-frontend clients into one
:class:`ResilientClient` that applies the standard tail-tolerance
toolkit (Dean & Barroso, *The Tail at Scale*; Finagle's retry budgets):

* **Hedged requests** — after a delay tracking the recent p95 latency,
  a second copy of a slow request is issued to a *different* frontend;
  the first response wins and the loser is cancelled.  One straggling
  shard inflates a frontend's p99 by orders of magnitude; the hedge
  caps the damage at roughly the p95 of a healthy replica.
* **Retry budget** — a token bucket deposits ``ratio`` tokens per
  primary request and charges one per retry or hedge, so retry traffic
  is bounded at a fraction of primary traffic even when the backend
  fails 100% of requests.  Unbudgeted retries are how overloads become
  outages (retry amplification); the budget makes the amplification
  factor a config knob instead of an emergent property.
* **Error taxonomy** — only errors that are safe *and useful* to retry
  are retried: torn transports (:class:`TransportError`), backend
  faults (:class:`BackendError`), and ``draining`` rejections (the
  frontend is restarting; another replica is healthy).  Deadline
  expiry, rate limiting, and shed-overload are **fatal**: the deadline
  has passed, the tenant is over quota, or the cluster is shedding load
  by policy — retrying would defeat the very mechanism rejecting us.
* **Capped exponential backoff + jitter** between sequential retries,
  timed on the running loop's clock (virtual under
  :mod:`repro.serve.vtime`, so tests wait no real time).
* **Outlier ejection** — a replica whose transport just tore is
  penalized for a short cooldown so the next primary lands elsewhere;
  during a rolling restart new work naturally flows around the
  draining frontend.

Everything observable lands in :class:`ResilienceStats` (attempts,
hedges, hedge wins, retries, budget denials), which the load generator
folds into its amplification report.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..errors import (
    BackendError,
    FrontendError,
    RequestRejected,
    TransportError,
)
from ..obs import SlidingWindow
from .admission import CODE_DEADLINE, CODE_DRAINING

#: Rejection codes worth re-issuing on another frontend.
RETRYABLE_CODES = frozenset({CODE_DRAINING, "backend-error"})

#: The latency quantile the hedge delay tracks, once this many latencies
#: have been observed, clamped above at ``HEDGE_MAX_S``.
HEDGE_QUANTILE = 0.95
HEDGE_MIN_SAMPLES = 20
HEDGE_MAX_S = 1.0

#: How long a replica whose transport just tore is passed over
#: (outlier ejection).
PENALTY_S = 0.5


def _now() -> float:
    return asyncio.get_running_loop().time()


def is_retryable(exc: BaseException) -> bool:
    """Classify an exception as retryable-elsewhere or fatal.

    The read-only probe/scan surface makes re-execution always *safe*;
    this predicate decides where it is *useful*.
    """
    if isinstance(exc, (TransportError, BackendError)):
        return True
    if isinstance(exc, RequestRejected):
        return exc.code in RETRYABLE_CODES
    return False


@dataclass(frozen=True)
class RetryBudgetConfig:
    """Token-bucket retry budget (Finagle-style).

    Attributes:
        ratio: Tokens deposited per primary request — the steady-state
            bound on (retries + hedges) / primaries.
        reserve: Initial balance, so low-traffic clients can still
            retry the occasional failure.
        cap: Balance ceiling; idle periods cannot bank unlimited
            retries.
    """

    ratio: float = 0.2
    reserve: float = 10.0
    cap: float = 100.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.ratio <= 1.0:
            raise FrontendError(f"ratio must be in [0, 1], got {self.ratio}")
        if self.reserve < 0:
            raise FrontendError(f"reserve must be >= 0, got {self.reserve}")
        if self.cap < max(1.0, self.reserve):
            raise FrontendError(
                f"cap must be >= max(1, reserve), got {self.cap}"
            )


class RetryBudget:
    """The token bucket behind :class:`RetryBudgetConfig`."""

    def __init__(self, config: RetryBudgetConfig | None = None) -> None:
        self.config = config or RetryBudgetConfig()
        self.balance = self.config.reserve
        self.deposited = 0.0
        self.withdrawn = 0
        self.denied = 0

    def deposit(self) -> None:
        """Credit one primary request's worth of retry allowance."""
        self.balance = min(self.config.cap, self.balance + self.config.ratio)
        self.deposited += self.config.ratio

    def try_withdraw(self) -> bool:
        """Charge one retry/hedge; ``False`` when the budget is spent."""
        if self.balance >= 1.0:
            self.balance -= 1.0
            self.withdrawn += 1
            return True
        self.denied += 1
        return False


@dataclass
class ResilienceStats:
    """What the resilient client did, for reports and assertions."""

    requests: int = 0
    attempts: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    retries: int = 0
    budget_denied: int = 0
    failovers: int = 0

    @property
    def amplification(self) -> float:
        """Backend attempts per logical request (1.0 = no overhead)."""
        return self.attempts / self.requests if self.requests else 0.0

    def to_dict(self) -> dict[str, float]:
        return {
            "requests": self.requests,
            "attempts": self.attempts,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "retries": self.retries,
            "budget_denied": self.budget_denied,
            "failovers": self.failovers,
            "amplification": self.amplification,
        }


@dataclass(frozen=True)
class ResilientClientConfig:
    """Tuning knobs for :class:`ResilientClient`.

    Attributes:
        max_attempts: Total tries per logical request (primary
            included); 1 disables retries.
        hedge: Issue hedged requests (needs >= 2 replicas).
        hedge_min_s: Floor of the tracked hedge delay (its ceiling is
            :data:`HEDGE_MAX_S`).
        hedge_initial_s: Delay used until :data:`HEDGE_MIN_SAMPLES`
            latencies have been observed.
        backoff_base_s: First retry backoff; doubles per retry.
        backoff_cap_s: Backoff ceiling.
        budget: Retry-budget knobs (hedges and retries share it).
        seed: Jitter RNG seed (deterministic benches).
    """

    max_attempts: int = 3
    hedge: bool = True
    hedge_min_s: float = 0.001
    hedge_initial_s: float = 0.05
    backoff_base_s: float = 0.005
    backoff_cap_s: float = 0.25
    budget: RetryBudgetConfig = field(default_factory=RetryBudgetConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FrontendError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0.0 <= self.hedge_min_s <= HEDGE_MAX_S:
            raise FrontendError(
                f"hedge_min_s must be in [0, {HEDGE_MAX_S}], "
                f"got {self.hedge_min_s}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < self.backoff_base_s:
            raise FrontendError(
                "backoff must satisfy 0 <= base <= cap, got "
                f"[{self.backoff_base_s}, {self.backoff_cap_s}]"
            )


class ResilientClient:
    """Deadline-aware hedging/retrying facade over N frontend clients.

    Args:
        clients: Per-frontend clients exposing ``probe``/``scan``
            (``FrontendClient`` or anything with the same surface).
        config: Resilience tuning.

    Deadlines, penalties, latencies and backoff run on the running
    loop's clock.
    """

    def __init__(
        self,
        clients: Sequence[Any],
        config: ResilientClientConfig | None = None,
    ) -> None:
        if not clients:
            raise FrontendError("ResilientClient needs at least one client")
        self.clients = list(clients)
        self.config = config or ResilientClientConfig()
        self.budget = RetryBudget(self.config.budget)
        self.stats = ResilienceStats()
        self._latency = SlidingWindow(256)
        self._rng = random.Random(self.config.seed)
        self._next = 0
        self._penalty_until = [0.0] * len(self.clients)

    # ------------------------------------------------------------------
    # Public surface (mirrors FrontendClient)
    # ------------------------------------------------------------------

    async def probe(
        self,
        value: Any,
        t1: int,
        t2: int,
        *,
        tenant: str = "default",
        deadline_ms: float | None = None,
    ) -> Any:
        return await self._call(
            "probe", (value, t1, t2), tenant=tenant, deadline_ms=deadline_ms
        )

    async def scan(
        self,
        t1: int,
        t2: int,
        *,
        tenant: str = "default",
        deadline_ms: float | None = None,
    ) -> Any:
        return await self._call(
            "scan", (t1, t2), tenant=tenant, deadline_ms=deadline_ms
        )

    async def ping(self) -> bool:
        for client in self.clients:
            try:
                if await client.ping():
                    return True
            except (FrontendError, ConnectionError, OSError):
                continue
        return False

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    def hedge_delay_s(self) -> float:
        """Return the current hedge delay (tracked p-quantile, clamped)."""
        if self._latency.count < HEDGE_MIN_SAMPLES:
            return self.config.hedge_initial_s
        tracked = self._latency.quantile(HEDGE_QUANTILE)
        return min(HEDGE_MAX_S, max(self.config.hedge_min_s, tracked))

    # ------------------------------------------------------------------
    # Attempt machinery
    # ------------------------------------------------------------------

    def _pick(self, avoid: set[int]) -> int:
        """Round-robin over healthy replicas; penalized ones last."""
        now = _now()
        n = len(self.clients)
        fallback: int | None = None
        for step in range(n):
            idx = (self._next + step) % n
            if idx in avoid:
                continue
            if fallback is None:
                fallback = idx
            if self._penalty_until[idx] <= now:
                self._next = (idx + 1) % n
                return idx
        if fallback is None:
            # Every replica is in `avoid`; reuse the round-robin head.
            fallback = self._next % n
        self._next = (fallback + 1) % n
        return fallback

    def _penalize(self, idx: int) -> None:
        self._penalty_until[idx] = _now() + PENALTY_S

    async def _issue(
        self,
        idx: int,
        op: str,
        spec: tuple[Any, ...],
        tenant: str,
        deadline: float | None,
    ) -> Any:
        self.stats.attempts += 1
        client = self.clients[idx]
        remaining_ms: float | None = None
        if deadline is not None:
            remaining_ms = max(0.0, (deadline - _now()) * 1e3)
        kwargs = {"tenant": tenant, "deadline_ms": remaining_ms}
        started = _now()
        try:
            if op == "probe":
                result = await client.probe(*spec, **kwargs)
            else:
                result = await client.scan(*spec, **kwargs)
        except TransportError:
            self._penalize(idx)
            raise
        self._latency.observe(_now() - started)
        return result

    async def _call(
        self,
        op: str,
        spec: tuple[Any, ...],
        *,
        tenant: str,
        deadline_ms: float | None,
    ) -> Any:
        self.stats.requests += 1
        self.budget.deposit()
        deadline = (
            None if deadline_ms is None else _now() + deadline_ms / 1e3
        )
        last_exc: BaseException | None = None
        for attempt in range(self.config.max_attempts):
            if attempt > 0:
                # Sequential retry: charge the budget, back off with
                # jitter, and prefer a different replica.
                if not self.budget.try_withdraw():
                    self.stats.budget_denied += 1
                    break
                self.stats.retries += 1
                backoff = min(
                    self.config.backoff_cap_s,
                    self.config.backoff_base_s * (2 ** (attempt - 1)),
                )
                backoff *= 0.5 + self._rng.random() / 2.0
                if deadline is not None:
                    backoff = min(backoff, max(0.0, deadline - _now()))
                if backoff > 0:
                    await asyncio.sleep(backoff)
            if deadline is not None and _now() >= deadline:
                raise RequestRejected(
                    CODE_DEADLINE, "deadline expired before retry"
                )
            try:
                return await self._attempt(op, spec, tenant, deadline)
            except Exception as exc:  # noqa: BLE001 — taxonomy decides
                if not is_retryable(exc):
                    raise
                last_exc = exc
                if attempt > 0:
                    self.stats.failovers += 1
        assert last_exc is not None
        raise last_exc

    async def _attempt(
        self,
        op: str,
        spec: tuple[Any, ...],
        tenant: str,
        deadline: float | None,
    ) -> Any:
        """One attempt: a primary, optionally joined by one hedge."""
        primary_idx = self._pick(avoid=set())
        loop = asyncio.get_running_loop()
        primary = loop.create_task(
            self._issue(primary_idx, op, spec, tenant, deadline)
        )
        tasks: dict[asyncio.Task, int] = {primary: primary_idx}
        hedge_armed = self.config.hedge and len(self.clients) > 1
        errors: list[BaseException] = []
        try:
            while tasks:
                timeout: float | None = None
                if hedge_armed:
                    timeout = self.hedge_delay_s()
                if deadline is not None:
                    remaining = deadline - _now()
                    if remaining <= 0:
                        raise RequestRejected(
                            CODE_DEADLINE, "deadline expired in client"
                        )
                    timeout = (
                        remaining if timeout is None
                        else min(timeout, remaining)
                    )
                done, _ = await asyncio.wait(
                    tasks, timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    if (
                        deadline is not None
                        and _now() >= deadline
                    ):
                        raise RequestRejected(
                            CODE_DEADLINE, "deadline expired in client"
                        )
                    # The hedge timer fired: issue one backup to a
                    # different replica — budget permitting.
                    if hedge_armed and self.budget.try_withdraw():
                        hedge_idx = self._pick(avoid={tasks[primary]})
                        self.stats.hedges += 1
                        hedge = loop.create_task(
                            self._issue(hedge_idx, op, spec, tenant, deadline)
                        )
                        tasks[hedge] = hedge_idx
                    hedge_armed = False
                    continue
                for task in done:
                    tasks.pop(task)
                    exc = task.exception()
                    if exc is None:
                        if task is not primary:
                            self.stats.hedge_wins += 1
                        return task.result()
                    assert exc is not None
                    errors.append(exc)
                if not tasks:
                    # Primary and hedge (if it fired) both failed.
                    # Surface a fatal error over a retryable one so the
                    # retry loop above does not burn attempts on a
                    # request that is already dead (e.g. its deadline
                    # expired on one replica while the other's
                    # transport tore).
                    fatal = [e for e in errors if not is_retryable(e)]
                    raise (fatal[-1] if fatal else errors[-1])
                # A sibling attempt is still in flight; keep waiting
                # (the hedge timer may also still be armed).
            raise errors[-1]
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)


__all__ = [
    "RETRYABLE_CODES",
    "ResilienceStats",
    "ResilientClient",
    "ResilientClientConfig",
    "RetryBudget",
    "RetryBudgetConfig",
    "is_retryable",
]

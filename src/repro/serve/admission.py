"""Admission control for the asyncio serving frontend.

The pipeline every query passes through, in order:

1. **Drain gate** — a draining server admits nothing new
   (``draining``); work already admitted still completes.
2. **Per-tenant token bucket** — each tenant refills at
   ``tenant_rate`` tokens/s up to :data:`TENANT_BURST`; an empty bucket
   rejects with ``rate-limit`` before the request costs anything.
3. **Bounded request queue** — at most ``max_queue_depth`` requests
   wait.  When the queue is full the configured overload policy
   decides: ``shed`` rejects immediately with ``shed-overload`` (keeps
   admitted-latency bounded; the open-loop generator sees the rejects),
   ``queue`` makes the submitter wait for space (backpressure: latency
   absorbs the overload instead); one still waiting when a drain begins
   is refused ``draining``, never admitted.
4. **Deadline while queued** — a dispatcher that dequeues an
   already-expired request rejects it (``deadline-expired``) without
   spending backend time on an answer nobody is waiting for; one whose
   waiter is already gone (its connection closed, its caller was
   cancelled) is dropped the same way and counted ``serve.abandoned``.
5. **Concurrency-limited dispatch** — ``max_concurrency`` dispatcher
   tasks pull from the queue.  Consecutive probe requests are coalesced
   (up to ``batch_max``) into one backend ``probe_many`` call, carrying
   the batched read path's amortization through the frontend.  The
   backend's calls are coroutines, awaited on the event loop the
   request is already on: one that only computes (as
   :class:`CoordinatorBackend` does) returns without yielding; one that
   waits — a sleep, I/O — yields to the loop while it waits, so its
   waits overlap those of other dispatchers and other frontends.  A
   dispatcher yields once after a batch when the queue holds more, so
   the answers of one batch leave before the next is computed.
6. **Deadline in flight** — when every request of a batch carries a
   deadline, the call is awaited under the most patient one.  A
   backend still waiting at expiry is cancelled, so the coordinator is
   never called for that batch; one that computes cannot be interrupted
   (no timer fires while it runs), so its batch is settled when it
   returns.  Either way each request is then settled against its own
   deadline: one that passed in flight is rejected, not answered late.

Everything is observable through a :class:`~repro.obs.MetricsRegistry`:
``serve.admitted`` / ``serve.shed`` / ``serve.rejected.*`` counters,
per-tenant admit/reject counters, queue-depth and batch-size
histograms, and latency histograms (``serve.latency.*``, in
seconds).  They read the loop's clock, not simulated-disk time:
real time under ``repro serve``, virtual time under the serving
benches.  The four histograms are fixed-memory
:class:`~repro.obs.LogHistogram`\\ s: their memory and a ``stats``
scrape cost the same after a million requests as after ten.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from ..errors import BackendError, FrontendError, RequestRejected
from ..obs import Counter, MetricsRegistry
from .adaptive import AdaptiveConfig, AimdController
from .protocol import check_deadline
from .queueing import QUEUE_DISCIPLINES, QueueClosed, build_request_queue

#: Overload policies :class:`AdmissionConfig` accepts.
OVERLOAD_POLICIES = ("shed", "queue")

#: Rejection codes the pipeline emits (the wire protocol's error codes).
CODE_SHED = "shed-overload"
CODE_RATE_LIMIT = "rate-limit"
CODE_DEADLINE = "deadline-expired"
CODE_DRAINING = "draining"

#: Tokens a tenant's bucket holds when full: the burst it may send at
#: once before ``tenant_rate`` paces it.
TENANT_BURST = 50.0


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning knobs of the admission pipeline.

    The defaults are sized for the demo cluster the CLI serves; the
    saturation bench overrides them per sweep.
    """

    max_queue_depth: int = 256
    overload_policy: str = "shed"
    max_concurrency: int = 4
    #: Consecutive same-op requests coalesced into one backend batch.
    batch_max: int = 32
    #: Per-tenant refill rate in requests/s; ``None`` disables the
    #: token buckets entirely (every tenant is unlimited).
    tenant_rate: float | None = None
    #: How long :meth:`AdmissionController.drain` waits for queued and
    #: in-flight work before abandoning it.
    drain_timeout_s: float = 10.0
    #: Request-queue discipline: ``fifo`` (the PR 8 global queue,
    #: default) or ``drr`` (per-tenant deficit-weighted round-robin —
    #: see :mod:`repro.serve.queueing`).
    queue_discipline: str = "fifo"
    #: AIMD adaptive-concurrency controller; ``None`` (default) keeps
    #: the PR 8 fixed dispatcher pool.
    adaptive: AdaptiveConfig | None = None

    def __post_init__(self) -> None:
        if self.overload_policy not in OVERLOAD_POLICIES:
            raise FrontendError(
                f"unknown overload policy {self.overload_policy!r}; "
                f"known: {', '.join(OVERLOAD_POLICIES)}"
            )
        if self.queue_discipline not in QUEUE_DISCIPLINES:
            raise FrontendError(
                f"unknown queue discipline {self.queue_discipline!r}; "
                f"known: {', '.join(QUEUE_DISCIPLINES)}"
            )
        if (
            self.adaptive is not None
            and self.adaptive.max_concurrency > self.max_concurrency
        ):
            raise FrontendError(
                "adaptive.max_concurrency must be <= max_concurrency "
                f"(the dispatcher pool size), got "
                f"{self.adaptive.max_concurrency} > {self.max_concurrency}"
            )
        if self.max_queue_depth < 1:
            raise FrontendError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_concurrency < 1:
            raise FrontendError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if self.batch_max < 1:
            raise FrontendError(
                f"batch_max must be >= 1, got {self.batch_max}"
            )
        if self.tenant_rate is not None and self.tenant_rate <= 0:
            raise FrontendError(
                f"tenant_rate must be > 0, got {self.tenant_rate}"
            )


class TokenBucket:
    """One tenant's rate limiter: ``rate`` tokens/s up to ``burst``.

    Pure arithmetic on an injected clock value — no threads, no tasks —
    so refill timing is exactly testable.
    """

    def __init__(self, rate: float, burst: float, *, now: float) -> None:
        if rate <= 0:
            raise FrontendError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise FrontendError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last = now

    def _refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(
                self.burst, self.tokens + (now - self._last) * self.rate
            )
        self._last = max(self._last, now)

    def try_take(self, now: float, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; refills first."""
        self._refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


@dataclass
class _Pending:
    """One admitted request waiting in the queue."""

    op: str  # "probe" | "scan"
    spec: tuple[Any, ...]
    tenant: str
    enqueued_at: float
    deadline: float | None
    future: asyncio.Future = field(repr=False, kw_only=True)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


class CoordinatorBackend:
    """Bridge from the async frontend to the sync cluster.

    A call only computes — it never sleeps and never waits on I/O — so
    it returns without yielding, and no other task touches the
    coordinator while it runs.  That is what keeps the single-threaded
    simulated substrate under the
    :class:`~repro.cluster.coordinator.ClusterCoordinator` (device
    clocks, page caches, failover bookkeeping) single-threaded: every
    frontend of a fleet, and every wrapper around this backend, runs on
    the one event loop, and nothing else may call the coordinator while
    the loop serves.  Concurrency above this point comes from batching
    and from the loop interleaving queueing, admission and timeouts
    between batches.
    """

    def __init__(self, coordinator: Any) -> None:
        self.coordinator = coordinator

    async def probe_many(self, specs: list[tuple[Any, int, int]]) -> list[Any]:
        return list(self.coordinator.probe_many(specs).results)

    async def scan_many(self, specs: list[tuple[int, int]]) -> list[Any]:
        return list(self.coordinator.scan_many(specs).results)


class AdmissionController:
    """The admission pipeline: buckets -> bounded queue -> dispatchers.

    Args:
        backend: Object with coroutine methods ``probe_many(specs)`` /
            ``scan_many(specs)`` returning one result per spec (usually
            a :class:`CoordinatorBackend`), awaited on the event loop.
        config: Pipeline tuning.
        metrics: Registry the pipeline publishes into (created when
            omitted; exposed as :attr:`obs`).

    Every time it reads (token refill, deadlines, latencies) is the
    running loop's ``time()``: ``time.monotonic()`` on a real loop, the
    counter on a :class:`~repro.serve.vtime.VirtualTimeLoop`.
    """

    def __init__(
        self,
        backend: Any,
        config: AdmissionConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.backend = backend
        self.config = config or AdmissionConfig()
        self.obs = metrics or MetricsRegistry()
        # The metrics every request bumps, looked up once; the rare ones
        # (rejections, sheds, deadline and backend errors) are still
        # created by name when they first happen.
        self._requests = self.obs.counter("serve.requests")
        self._admitted = self.obs.counter("serve.admitted")
        self._completed = self.obs.counter("serve.completed")
        self._queue_depth = self.obs.log_histogram("serve.queue.depth")
        self._batch_size = self.obs.log_histogram("serve.batch.size")
        self._queue_latency = self.obs.log_histogram("serve.latency.queue")
        self._wall_latency = self.obs.log_histogram("serve.latency.wall")
        #: tenant -> its (``requests``, ``admitted``) counters.
        self._tenants: dict[str, tuple[Counter, Counter]] = {}
        self._queue = build_request_queue(
            self.config.queue_discipline,
            self.config.max_queue_depth,
            on_evict=self._evict,
        )
        self._adaptive: AimdController | None = None
        self._limit_cond: asyncio.Condition | None = None
        if self.config.adaptive is not None:
            self._adaptive = AimdController(
                self.config.adaptive, metrics=self.obs
            )
            self._limit_cond = asyncio.Condition()
        self._buckets: dict[str, TokenBucket] = {}
        self._dispatchers: list[asyncio.Task] = []
        self._draining = False
        self._in_flight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn the dispatcher tasks (idempotent)."""
        if self._started:
            return
        self._started = True
        for i in range(self.config.max_concurrency):
            self._dispatchers.append(
                asyncio.get_running_loop().create_task(
                    self._dispatch_loop(i), name=f"repro-dispatch-{i}"
                )
            )

    @property
    def draining(self) -> bool:
        """Return ``True`` once :meth:`drain` has begun."""
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Return how many admitted requests are waiting."""
        return self._queue.qsize()

    @property
    def in_flight(self) -> int:
        """Return how many requests are currently dispatched."""
        return self._in_flight

    @property
    def concurrency_limit(self) -> int:
        """Return the current dispatcher limit (fixed unless adaptive)."""
        if self._adaptive is None:
            return self.config.max_concurrency
        return self._adaptive.limit

    @property
    def adaptive_snapshot(self) -> dict[str, float] | None:
        """Return AIMD controller state, or ``None`` when disabled."""
        if self._adaptive is None:
            return None
        return self._adaptive.snapshot()

    async def drain(self, timeout_s: float | None = None) -> bool:
        """Stop admitting, let queued and in-flight work finish.

        Returns ``True`` when everything completed inside the timeout;
        ``False`` when the timeout expired and the stragglers were
        abandoned (their futures are rejected with ``draining``).
        Either way the dispatchers are shut down.  A submitter still
        waiting for a queue slot is refused ``draining`` at once: it was
        never admitted.
        """
        self._draining = True
        self._queue.refuse_waiting_puts()
        timeout = (
            self.config.drain_timeout_s if timeout_s is None else timeout_s
        )
        clean = True
        try:
            await asyncio.wait_for(self._quiesced(), timeout)
        except asyncio.TimeoutError:
            clean = False
        for task in self._dispatchers:
            task.cancel()
        if self._dispatchers:
            # wait(), not ``await task``: a CancelledError thrown into
            # this coroutine stays referenced by the loop's wake-up call
            # until the caller next yields, and its traceback holds a
            # dispatcher frame — so the controller and the backend.
            await asyncio.wait(self._dispatchers)
        self._dispatchers.clear()
        while not self._queue.empty():
            pending = self._queue.get_nowait()
            self._reject(pending, CODE_DRAINING, "abandoned by drain")
            clean = False
        self.obs.counter("serve.drains").inc()
        return clean

    async def _quiesced(self) -> None:
        while True:
            if self._queue.empty() and self._in_flight == 0:
                return
            await self._idle.wait()
            # The event flips on every transition to idle dispatchers;
            # loop to re-check the queue, which may have been refilled
            # by a submitter that won the race with the drain flag.
            self._idle.clear()

    # ------------------------------------------------------------------
    # Submission (stages 1-3)
    # ------------------------------------------------------------------

    async def submit(
        self,
        op: str,
        spec: tuple[Any, ...],
        *,
        tenant: str = "default",
        deadline_s: float | None = None,
    ) -> Any:
        """Run one request through the pipeline; return its result.

        Raises :class:`~repro.errors.RequestRejected` with the
        stage-specific code when the pipeline refuses it, and
        :class:`~repro.errors.FrontendError` before any stage for an op
        it does not know or a deadline that is no number (NaN would
        never expire).
        """
        if op not in ("probe", "scan"):
            raise FrontendError(f"unknown op {op!r}")
        if deadline_s is not None:
            check_deadline(deadline_s)
        loop = asyncio.get_running_loop()
        now = loop.time()
        self._requests.inc()
        counters = self._tenants.get(tenant)
        if counters is None:
            counters = self._tenants[tenant] = (
                self.obs.counter(f"serve.tenant.{tenant}.requests"),
                self.obs.counter(f"serve.tenant.{tenant}.admitted"),
            )
        tenant_requests, tenant_admitted = counters
        tenant_requests.inc()
        if self._draining:
            raise self._rejected(tenant, CODE_DRAINING, "server is draining")
        if not self._bucket_admits(tenant, now):
            raise self._rejected(
                tenant, CODE_RATE_LIMIT,
                f"tenant {tenant!r} exceeded its request rate",
            )
        pending = _Pending(
            op=op,
            spec=spec,
            tenant=tenant,
            enqueued_at=now,
            deadline=None if deadline_s is None else now + deadline_s,
            future=loop.create_future(),
        )
        self._queue_depth.observe(self._queue.qsize())
        if self.config.overload_policy == "shed":
            try:
                self._queue.put_nowait(pending)
            except asyncio.QueueFull:
                self.obs.counter("serve.shed").inc()
                raise self._rejected(
                    tenant, CODE_SHED,
                    f"queue full ({self.config.max_queue_depth}) under "
                    f"the shed policy",
                ) from None
        else:
            # Queue policy: backpressure.  The submitter waits for a
            # slot; time spent here is queueing latency by another name
            # and lands in the same wall-clock histogram.
            try:
                await self._queue.put(pending)
            except QueueClosed:
                raise self._rejected(
                    tenant, CODE_DRAINING, "server is draining"
                ) from None
        self._admitted.inc()
        tenant_admitted.inc()
        return await pending.future

    def _bucket_admits(self, tenant: str, now: float) -> bool:
        rate = self.config.tenant_rate
        if rate is None:
            return True
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                rate, TENANT_BURST, now=now
            )
        return bucket.try_take(now)

    def _rejected(
        self, tenant: str, code: str, message: str
    ) -> RequestRejected:
        self.obs.counter(f"serve.rejected.{code}").inc()
        self.obs.counter(f"serve.tenant.{tenant}.rejected").inc()
        return RequestRejected(code, message)

    def _reject(self, pending: _Pending, code: str, message: str) -> None:
        if not pending.future.done():
            pending.future.set_exception(
                self._rejected(pending.tenant, code, message)
            )

    def _evict(self, pending: _Pending) -> None:
        # Fair shedding (DRR only): the queue made room for a light
        # tenant by evicting the newest request of the heaviest backlog.
        self.obs.counter("serve.shed").inc()
        self.obs.counter("serve.shed.evicted").inc()
        self._reject(
            pending, CODE_SHED,
            "evicted by fair shedding (largest tenant backlog)",
        )

    # ------------------------------------------------------------------
    # Dispatch (stages 4-6)
    # ------------------------------------------------------------------

    async def _dispatch_loop(self, index: int) -> None:
        while True:
            if self._adaptive is not None:
                await self._await_slot(index)
            pending = await self._queue.get()
            batch = [pending]
            # Coalesce immediately-available same-op requests so the
            # backend sees one probe_many where the wire saw many
            # single probes.
            while (
                len(batch) < self.config.batch_max
                and not self._queue.empty()
            ):
                nxt = self._queue.peek()
                if nxt is None or nxt.op != pending.op:
                    break
                batch.append(self._queue.get_nowait())
            self._in_flight += len(batch)
            self._idle.clear()
            try:
                await self._dispatch_batch(batch)
            finally:
                self._in_flight -= len(batch)
                for _ in batch:
                    self._queue.task_done()
                if self._in_flight == 0:
                    self._idle.set()
            if not self._queue.empty():
                # A backend that computed gave the loop no turn, and get()
                # takes none when the queue holds more: let this batch's
                # answers go out before the next is computed.
                await asyncio.sleep(0)
            if self._adaptive is not None:
                await self._adapt()

    async def _await_slot(self, index: int) -> None:
        # Adaptive mode: dispatchers whose index exceeds the AIMD limit
        # park here until additive increase re-opens their slot.  Index
        # 0 never parks (min_concurrency >= 1), so dispatch and drain
        # always make progress.
        assert self._adaptive is not None and self._limit_cond is not None
        while index >= self._adaptive.limit:
            async with self._limit_cond:
                if index >= self._adaptive.limit:
                    await self._limit_cond.wait()

    async def _adapt(self) -> None:
        # One evaluation per interval (the controller rate-limits
        # itself on the loop's clock); on any limit change, wake the
        # parked dispatchers so the new limit takes effect immediately.
        assert self._adaptive is not None and self._limit_cond is not None
        before = self._adaptive.limit
        now = asyncio.get_running_loop().time()
        after = self._adaptive.maybe_evaluate(now)
        if after > before:
            async with self._limit_cond:
                self._limit_cond.notify_all()

    async def _dispatch_batch(self, batch: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        alive: list[_Pending] = []
        for pending in batch:
            if pending.future.done():
                # Stage 4: the waiter left while the request sat in the
                # queue (its connection closed, its task was cancelled);
                # spend nothing on it.
                self.obs.counter("serve.abandoned").inc()
            elif pending.expired(now):
                # Likewise when the deadline passed in the queue.
                self.obs.counter("serve.deadline.queued").inc()
                self._reject(
                    pending, CODE_DEADLINE,
                    "deadline expired while queued",
                )
            else:
                alive.append(pending)
        if not alive:
            return
        self._batch_size.observe(len(alive))
        for pending in alive:
            self._queue_latency.observe(now - pending.enqueued_at)
        op = alive[0].op
        specs = [p.spec for p in alive]
        call = (
            self.backend.probe_many
            if op == "probe"
            else self.backend.scan_many
        )
        # Stage 6: under the most patient deadline when every request
        # has one; each request is then settled below against its own.
        deadlines = [p.deadline for p in alive]
        timeout = None if None in deadlines else max(deadlines) - now
        try:
            results = await asyncio.wait_for(call(specs), timeout)
        except asyncio.CancelledError:
            # An unclean drain cancelled this dispatcher mid-flight;
            # settle the waiters so no client hangs on a dead future.
            for pending in alive:
                self._reject(pending, CODE_DRAINING, "abandoned by drain")
            raise
        except asyncio.TimeoutError:
            # The backend was cancelled while it waited: every waiter's
            # deadline has passed.
            self.obs.counter("serve.deadline.inflight").inc(len(alive))
            expired_at = loop.time()
            for pending in alive:
                if self._adaptive is not None:
                    # Timeouts are the strongest congestion signal the
                    # controller gets; starving it of them would stall
                    # backoff exactly when every request is expiring.
                    self._adaptive.record(expired_at - pending.enqueued_at)
                self._reject(
                    pending, CODE_DEADLINE,
                    "deadline expired in flight",
                )
            return
        except Exception as exc:  # backend fault: fail the batch loudly
            self.obs.counter("serve.backend.errors").inc()
            for pending in alive:
                if not pending.future.done():
                    pending.future.set_exception(
                        BackendError(f"backend error: {exc!r}")
                    )
            return
        done = loop.time()
        for pending, result in zip(alive, results):
            latency = done - pending.enqueued_at
            if self._adaptive is not None:
                self._adaptive.record(latency)
            if pending.expired(done):
                self.obs.counter("serve.deadline.inflight").inc()
                self._reject(
                    pending, CODE_DEADLINE,
                    "deadline expired in flight",
                )
                continue
            self._completed.inc()
            self._wall_latency.observe(latency)
            if not pending.future.done():
                pending.future.set_result(result)


__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "CODE_DEADLINE",
    "CODE_DRAINING",
    "CODE_RATE_LIMIT",
    "CODE_SHED",
    "CoordinatorBackend",
    "OVERLOAD_POLICIES",
    "TokenBucket",
]

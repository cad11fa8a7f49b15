"""Request queues for the admission pipeline: FIFO and per-tenant DRR.

The admission controller is written against one small queue surface —
``put_nowait``/``put``/``get``/``get_nowait``/``peek`` plus size
inspection — with two disciplines behind it:

* :class:`FifoRequestQueue` — a thin veneer over :class:`asyncio.Queue`,
  preserving the PR 8 pipeline byte for byte: one global FIFO, shed or
  backpressure when full, dispatch in arrival order.  This is the
  default; every equivalence claim against the PR 8 frontend runs
  through it.
* :class:`DrrRequestQueue` — per-tenant deficit-weighted round-robin.
  Each tenant gets its own FIFO; dispatch cycles tenants, giving each a
  ``quantum x weight`` credit per turn and serving one request per unit
  of credit.  A tenant offering 10x the traffic therefore gets at most
  its *weighted share* of dispatch slots while backlogged — the Zipf
  tail is never starved by one heavy tenant.

Fairness also governs *shedding*.  A full global FIFO sheds whatever
arrives next, so a heavy tenant that filled the queue transfers its
overload to everyone else's arrivals.  The DRR queue sheds from the
**largest backlog** instead: when the queue is full and the arriving
tenant's backlog is smaller than the biggest one, the newest request of
the biggest-backlog tenant is evicted (its waiter settled with
``shed-overload`` through the ``on_evict`` callback) and the newcomer
admitted.  Overload cost lands on whoever caused it.

Both disciplines enforce the same global ``maxsize`` bound and the same
two overload behaviours (shed via ``put_nowait`` raising
:class:`asyncio.QueueFull`, backpressure via ``await put()``), and both
let a drain refuse the ``put`` calls still waiting for a slot
(:class:`QueueClosed`), so the admission controller's shed/queue policy
semantics and drain loop are discipline-agnostic.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Mapping

from ..errors import FrontendError

#: Queue disciplines :class:`~repro.serve.admission.AdmissionConfig`
#: accepts.
QUEUE_DISCIPLINES = ("fifo", "drr")


class QueueClosed(Exception):
    """Raised by a ``put`` refused while it waited for a slot."""


def _refuse(putters: deque[asyncio.Future]) -> None:
    for putter in putters:
        if not putter.done():
            putter.set_exception(QueueClosed())


class FifoRequestQueue:
    """The PR 8 queue: one global FIFO over :class:`asyncio.Queue`."""

    def __init__(self, maxsize: int) -> None:
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)

    def put_nowait(self, pending: Any) -> None:
        """Enqueue without waiting; raises ``QueueFull`` when full."""
        self._queue.put_nowait(pending)

    async def put(self, pending: Any) -> None:
        """Enqueue, waiting for space (the backpressure policy)."""
        await self._queue.put(pending)

    def refuse_waiting_puts(self) -> None:
        """Fail every :meth:`put` now waiting for space: ``QueueClosed``."""
        # asyncio.Queue has no public way to do this before 3.13's
        # shutdown(); its put() cleans up after a failed waiter.
        _refuse(self._queue._putters)  # type: ignore[attr-defined]

    async def get(self) -> Any:
        """Dequeue the oldest request, waiting for one to arrive."""
        return await self._queue.get()

    def get_nowait(self) -> Any:
        """Dequeue without waiting; raises ``QueueEmpty`` when empty."""
        return self._queue.get_nowait()

    def peek(self) -> Any | None:
        """Return the request :meth:`get_nowait` would dequeue next."""
        if self._queue.empty():
            return None
        return self._queue._queue[0]  # type: ignore[attr-defined]

    def task_done(self) -> None:
        self._queue.task_done()

    def empty(self) -> bool:
        return self._queue.empty()

    def qsize(self) -> int:
        return self._queue.qsize()


class DrrRequestQueue:
    """Per-tenant deficit-weighted round-robin with fair shedding.

    Args:
        maxsize: Global bound across all tenant queues.
        quantum: Credit added to a tenant's deficit each time it reaches
            the head of the round; with unit request cost, a quantum of
            1.0 and equal weights degenerate to plain round-robin.
        weights: Per-tenant service weights (default 1.0).  A tenant
            with weight 2.0 drains twice as fast as one with 1.0 while
            both are backlogged.
        on_evict: Called with the request evicted by fair shedding (the
            admission controller settles its waiter with
            ``shed-overload``).
    """

    def __init__(
        self,
        maxsize: int,
        *,
        quantum: float = 1.0,
        weights: Mapping[str, float] | None = None,
        on_evict: Callable[[Any], None] | None = None,
    ) -> None:
        if maxsize < 1:
            raise FrontendError(f"maxsize must be >= 1, got {maxsize}")
        if quantum <= 0:
            raise FrontendError(f"quantum must be > 0, got {quantum}")
        self.maxsize = maxsize
        self.quantum = quantum
        self.weights = dict(weights or {})
        for tenant, weight in self.weights.items():
            if weight <= 0:
                raise FrontendError(
                    f"tenant {tenant!r} weight must be > 0, got {weight}"
                )
        self.on_evict = on_evict
        self._queues: dict[str, deque[Any]] = {}
        #: Tenants with a non-empty queue, in round order.
        self._round: deque[str] = deque()
        #: Deficit carried by the tenant between its turns.
        self._deficit: dict[str, float] = {}
        #: Credit of the tenant currently at the head of the round;
        #: ``None`` until the turn is established.
        self._credit: float | None = None
        self._size = 0
        self._getters: deque[asyncio.Future] = deque()
        self._putters: deque[asyncio.Future] = deque()
        self.evicted = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def empty(self) -> bool:
        return self._size == 0

    def qsize(self) -> int:
        return self._size

    def _weight(self, tenant: str) -> float:
        return self.weights.get(tenant, 1.0)

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------

    def put_nowait(self, pending: Any) -> None:
        """Enqueue; when full, shed fairly or raise ``QueueFull``.

        A full queue compares the arriving tenant's backlog with the
        largest backlog: if some other tenant holds strictly more, its
        *newest* request is evicted (via ``on_evict``) to make room —
        overload lands on the tenant causing it.  Otherwise the arrival
        itself is shed by raising :class:`asyncio.QueueFull`, exactly
        like the FIFO queue.
        """
        if self._size >= self.maxsize:
            if not self._evict_for(pending):
                raise asyncio.QueueFull
        self._enqueue(pending)

    async def put(self, pending: Any) -> None:
        """Enqueue, waiting for space (backpressure; no eviction)."""
        while self._size >= self.maxsize:
            waiter = asyncio.get_running_loop().create_future()
            self._putters.append(waiter)
            try:
                await waiter
            except (asyncio.CancelledError, QueueClosed):
                waiter.cancel()
                try:
                    self._putters.remove(waiter)
                except ValueError:
                    pass
                # Pass a wakeup meant for us on to the next waiter.
                if not waiter.cancelled() and self._size < self.maxsize:
                    self._wake(self._putters)
                raise
        self._enqueue(pending)

    def refuse_waiting_puts(self) -> None:
        """Fail every :meth:`put` now waiting for space: ``QueueClosed``."""
        _refuse(self._putters)

    def _enqueue(self, pending: Any) -> None:
        tenant = getattr(pending, "tenant", "default")
        queue = self._queues.setdefault(tenant, deque())
        if not queue:
            self._round.append(tenant)
        queue.append(pending)
        self._size += 1
        self._wake(self._getters)

    def _evict_for(self, pending: Any) -> bool:
        """Evict the newest request of the largest backlog; report success."""
        tenant = getattr(pending, "tenant", "default")
        arriving = len(self._queues.get(tenant) or ())
        victim_tenant = None
        victim_len = arriving
        for other, queue in self._queues.items():
            if len(queue) > victim_len:
                victim_tenant, victim_len = other, len(queue)
        if victim_tenant is None:
            return False
        victim = self._queues[victim_tenant].pop()
        self._size -= 1
        if not self._queues[victim_tenant]:
            self._retire(victim_tenant)
        self.evicted += 1
        if self.on_evict is not None:
            self.on_evict(victim)
        return True

    # ------------------------------------------------------------------
    # Dequeue (the DRR schedule)
    # ------------------------------------------------------------------

    def _retire(self, tenant: str) -> None:
        """Drop an emptied tenant from the round, resetting its deficit."""
        self._deficit.pop(tenant, None)
        try:
            self._round.remove(tenant)
        except ValueError:
            pass
        if self._round and self._round[0] != tenant:
            pass
        self._credit = None

    def _ensure_turn(self) -> str:
        """Advance the round until its head tenant has serving credit."""
        if self._size == 0:
            raise asyncio.QueueEmpty
        while True:
            tenant = self._round[0]
            queue = self._queues.get(tenant)
            if not queue:  # defensive: emptied tenants leave the round
                self._round.popleft()
                self._credit = None
                continue
            if self._credit is None:
                self._credit = (
                    self._deficit.get(tenant, 0.0)
                    + self.quantum * self._weight(tenant)
                )
            if self._credit >= 1.0:
                return tenant
            # Turn over: carry the fractional remainder to the next
            # visit so small weights still accumulate service.
            self._deficit[tenant] = self._credit
            self._round.rotate(-1)
            self._credit = None

    def get_nowait(self) -> Any:
        """Dequeue the next request under the DRR schedule."""
        tenant = self._ensure_turn()
        queue = self._queues[tenant]
        pending = queue.popleft()
        self._size -= 1
        assert self._credit is not None
        self._credit -= 1.0
        if not queue:
            # An emptied tenant forfeits its deficit (classic DRR: idle
            # tenants must not bank credit) and leaves the round.
            self._deficit.pop(tenant, None)
            self._round.popleft()
            self._credit = None
        self._wake(self._putters)
        return pending

    async def get(self) -> Any:
        """Dequeue under DRR, waiting for a request to arrive."""
        while self._size == 0:
            waiter = asyncio.get_running_loop().create_future()
            self._getters.append(waiter)
            try:
                await waiter
            except asyncio.CancelledError:
                waiter.cancel()
                try:
                    self._getters.remove(waiter)
                except ValueError:
                    pass
                if not waiter.cancelled() and self._size > 0:
                    self._wake(self._getters)
                raise
        return self.get_nowait()

    def peek(self) -> Any | None:
        """Return the request :meth:`get_nowait` would dequeue next."""
        if self._size == 0:
            return None
        tenant = self._ensure_turn()
        return self._queues[tenant][0]

    def task_done(self) -> None:  # parity with asyncio.Queue's surface
        return None

    @staticmethod
    def _wake(waiters: deque[asyncio.Future]) -> None:
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                break


def build_request_queue(
    discipline: str,
    maxsize: int,
    *,
    quantum: float = 1.0,
    weights: Mapping[str, float] | None = None,
    on_evict: Callable[[Any], None] | None = None,
) -> FifoRequestQueue | DrrRequestQueue:
    """Return the configured request queue."""
    if discipline == "fifo":
        return FifoRequestQueue(maxsize)
    if discipline == "drr":
        return DrrRequestQueue(
            maxsize, quantum=quantum, weights=weights, on_evict=on_evict
        )
    raise FrontendError(
        f"unknown queue discipline {discipline!r}; "
        f"known: {', '.join(QUEUE_DISCIPLINES)}"
    )


__all__ = [
    "DrrRequestQueue",
    "FifoRequestQueue",
    "QUEUE_DISCIPLINES",
    "QueueClosed",
    "build_request_queue",
]

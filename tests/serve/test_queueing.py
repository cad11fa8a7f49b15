"""Request-queue tests: the FIFO veneer and the DRR discipline.

The DRR schedule is pure arithmetic (deficits, quanta, weights), so
every fairness property is asserted on exact dequeue orders — no load,
no timing.  The async put/get paths are exercised with parked waiter
tasks on a live event loop.
"""

import asyncio

import pytest

from repro.errors import FrontendError, RequestRejected
from repro.serve.admission import (
    CODE_SHED,
    AdmissionConfig,
    AdmissionController,
)
from repro.serve.queueing import (
    QUEUE_DISCIPLINES,
    DrrRequestQueue,
    FifoRequestQueue,
    build_request_queue,
)

from .conftest import GateBackend, run


async def spin(n: int = 10) -> None:
    for _ in range(n):
        await asyncio.sleep(0)


class Req:
    """Queue item stub: just a tenant and a label."""

    def __init__(self, tenant: str, label: int) -> None:
        self.tenant = tenant
        self.label = label

    def __repr__(self) -> str:
        return f"{self.tenant}{self.label}"


def fill(queue, *items: tuple[str, int]) -> None:
    for tenant, label in items:
        queue.put_nowait(Req(tenant, label))


def backlogs(queue) -> dict[str, int]:
    """Requests queued per tenant, tenants with none left out."""
    return {t: len(q) for t, q in queue._queues.items() if q}


def drain_order(queue) -> list[str]:
    order = []
    while not queue.empty():
        order.append(repr(queue.get_nowait()))
    return order


class TestFifoVeneer:
    def test_preserves_arrival_order(self):
        queue = FifoRequestQueue(maxsize=8)
        fill(queue, ("a", 1), ("b", 1), ("a", 2))
        assert drain_order(queue) == ["a1", "b1", "a2"]

    def test_put_nowait_full_raises_queuefull(self):
        queue = FifoRequestQueue(maxsize=1)
        fill(queue, ("a", 1))
        with pytest.raises(asyncio.QueueFull):
            queue.put_nowait(Req("a", 2))

    def test_peek_matches_next_get(self):
        queue = FifoRequestQueue(maxsize=4)
        assert queue.peek() is None
        fill(queue, ("a", 1), ("b", 1))
        assert queue.peek() is not None
        assert repr(queue.peek()) == "a1"
        assert repr(queue.get_nowait()) == "a1"
        assert repr(queue.peek()) == "b1"

    def test_size_inspection(self):
        queue = FifoRequestQueue(maxsize=4)
        assert queue.empty() and queue.qsize() == 0
        fill(queue, ("a", 1), ("a", 2))
        assert not queue.empty() and queue.qsize() == 2


class TestDrrSchedule:
    def test_equal_weights_interleave(self):
        # Plain round-robin at quantum 1: one request per tenant turn,
        # regardless of backlog depth.
        queue = DrrRequestQueue(maxsize=16)
        fill(
            queue,
            ("a", 1), ("a", 2), ("a", 3),
            ("b", 1), ("b", 2), ("b", 3),
        )
        assert drain_order(queue) == ["a1", "b1", "a2", "b2", "a3", "b3"]

    def test_single_tenant_degenerates_to_fifo(self):
        queue = DrrRequestQueue(maxsize=8)
        fill(queue, ("a", 1), ("a", 2), ("a", 3))
        assert drain_order(queue) == ["a1", "a2", "a3"]

    def test_weight_two_drains_twice_as_fast(self):
        queue = DrrRequestQueue(maxsize=16, weights={"a": 2.0})
        fill(
            queue,
            ("a", 1), ("a", 2), ("a", 3), ("a", 4),
            ("b", 1), ("b", 2),
        )
        assert drain_order(queue) == ["a1", "a2", "b1", "a3", "a4", "b2"]

    def test_fractional_weight_accumulates_deficit(self):
        # Weight 0.5 earns half a unit of credit per turn: tenant b is
        # served every *other* round, via the carried deficit.
        queue = DrrRequestQueue(maxsize=16, weights={"b": 0.5})
        fill(
            queue,
            ("a", 1), ("a", 2), ("a", 3), ("a", 4),
            ("b", 1), ("b", 2),
        )
        assert drain_order(queue) == ["a1", "a2", "b1", "a3", "a4", "b2"]

    def test_emptied_tenant_forfeits_deficit(self):
        # Classic DRR: idle tenants must not bank credit.  Tenant b
        # (weight 0.5) banks 0.5 deficit, then empties; when it comes
        # back it starts from zero and again waits out a full round.
        queue = DrrRequestQueue(maxsize=16, weights={"b": 0.5})
        fill(queue, ("a", 1), ("a", 2), ("b", 1))
        assert drain_order(queue) == ["a1", "a2", "b1"]
        fill(queue, ("a", 3), ("a", 4), ("b", 2))
        assert drain_order(queue) == ["a3", "a4", "b2"]

    def test_peek_matches_next_get(self):
        queue = DrrRequestQueue(maxsize=16)
        assert queue.peek() is None
        fill(queue, ("a", 1), ("a", 2), ("b", 1))
        while not queue.empty():
            peeked = queue.peek()
            assert peeked is queue.get_nowait()

    def test_get_nowait_on_empty_raises(self):
        queue = DrrRequestQueue(maxsize=4)
        with pytest.raises(asyncio.QueueEmpty):
            queue.get_nowait()

    def test_tenant_backlogs(self):
        queue = DrrRequestQueue(maxsize=16)
        fill(queue, ("a", 1), ("a", 2), ("b", 1))
        assert backlogs(queue) == {"a": 2, "b": 1}
        queue.get_nowait()
        queue.get_nowait()
        queue.get_nowait()
        assert backlogs(queue) == {}


class TestDrrFairShedding:
    def test_full_queue_evicts_largest_backlog(self):
        evicted = []
        queue = DrrRequestQueue(maxsize=4, on_evict=evicted.append)
        fill(queue, ("hog", 1), ("hog", 2), ("hog", 3), ("light", 1))
        # A second light tenant arrives at a full queue: the hog's
        # *newest* request makes room, not the arrival.
        queue.put_nowait(Req("other", 1))
        assert queue.qsize() == 4
        assert queue.evicted == 1
        assert [repr(r) for r in evicted] == ["hog3"]
        assert backlogs(queue) == {"hog": 2, "light": 1, "other": 1}

    def test_largest_arriving_tenant_sheds_itself(self):
        # The hog cannot evict anyone (no strictly larger backlog
        # exists), so its own arrival is shed — same QueueFull surface
        # as the FIFO queue.
        queue = DrrRequestQueue(maxsize=3)
        fill(queue, ("hog", 1), ("hog", 2), ("light", 1))
        with pytest.raises(asyncio.QueueFull):
            queue.put_nowait(Req("hog", 3))
        assert queue.evicted == 0
        assert queue.qsize() == 3

    def test_tied_backlogs_shed_the_arrival(self):
        # Strictly larger, not >=: when the arriving tenant's backlog
        # ties the biggest one, no other tenant is more responsible for
        # the overload, so the arrival itself is shed.
        queue = DrrRequestQueue(maxsize=4)
        fill(queue, ("a", 1), ("a", 2), ("b", 1), ("b", 2))
        with pytest.raises(asyncio.QueueFull):
            queue.put_nowait(Req("b", 3))
        assert queue.evicted == 0

    def test_eviction_can_empty_a_tenant(self):
        # Evicting a tenant's only request retires it from the round
        # cleanly — the subsequent dequeues see just the newcomer.
        queue = DrrRequestQueue(maxsize=1)
        fill(queue, ("hog", 1))
        queue.put_nowait(Req("light", 1))
        assert queue.evicted == 1
        assert drain_order(queue) == ["light1"]


class TestDrrAsyncPaths:
    def test_get_waits_for_put(self):
        async def scenario():
            queue = DrrRequestQueue(maxsize=4)
            getter = asyncio.get_running_loop().create_task(queue.get())
            await spin()
            assert not getter.done()
            queue.put_nowait(Req("a", 1))
            assert repr(await getter) == "a1"

        run(scenario())

    def test_cancelled_getter_passes_wakeup_on(self):
        async def scenario():
            queue = DrrRequestQueue(maxsize=4)
            loop = asyncio.get_running_loop()
            first = loop.create_task(queue.get())
            second = loop.create_task(queue.get())
            await spin()
            first.cancel()
            await spin()
            queue.put_nowait(Req("a", 1))
            assert repr(await second) == "a1"
            with pytest.raises(asyncio.CancelledError):
                await first

        run(scenario())

    def test_put_backpressure_waits_for_space(self):
        async def scenario():
            queue = DrrRequestQueue(maxsize=1)
            queue.put_nowait(Req("a", 1))
            putter = asyncio.get_running_loop().create_task(
                queue.put(Req("a", 2))
            )
            await spin()
            assert not putter.done()
            assert repr(queue.get_nowait()) == "a1"
            await putter
            assert repr(queue.get_nowait()) == "a2"

        run(scenario())

    def test_backpressure_put_never_evicts(self):
        async def scenario():
            evicted = []
            queue = DrrRequestQueue(maxsize=2, on_evict=evicted.append)
            fill(queue, ("hog", 1), ("hog", 2))
            putter = asyncio.get_running_loop().create_task(
                queue.put(Req("light", 1))
            )
            await spin()
            # The queue policy parks the submitter; fair shedding is a
            # shed-policy behaviour only.
            assert not putter.done()
            assert evicted == []
            queue.get_nowait()
            await putter
            assert queue.qsize() == 2

        run(scenario())


class TestBuildRequestQueue:
    def test_builds_both_disciplines(self):
        assert isinstance(build_request_queue("fifo", 4), FifoRequestQueue)
        drr = build_request_queue(
            "drr", 4, quantum=2.0, weights={"a": 3.0}
        )
        assert isinstance(drr, DrrRequestQueue)
        assert drr.quantum == 2.0
        assert drr.weights == {"a": 3.0}

    def test_unknown_discipline_raises(self):
        with pytest.raises(FrontendError, match="discipline"):
            build_request_queue("lifo", 4)
        assert "fifo" in QUEUE_DISCIPLINES and "drr" in QUEUE_DISCIPLINES

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"maxsize": 0},
            {"maxsize": 4, "quantum": 0.0},
            {"maxsize": 4, "weights": {"a": 0.0}},
            {"maxsize": 4, "weights": {"a": -1.0}},
        ],
    )
    def test_drr_validation(self, kwargs):
        with pytest.raises(FrontendError):
            DrrRequestQueue(**kwargs)


class TestDrrThroughController:
    """Fair shedding end to end: the evicted waiter is settled."""

    def test_eviction_settles_waiter_with_shed(self):
        async def scenario():
            backend = GateBackend()
            controller = AdmissionController(
                backend,
                AdmissionConfig(
                    max_queue_depth=2, max_concurrency=1, batch_max=1,
                    overload_policy="shed", queue_discipline="drr",
                ),
            )
            controller.start()
            loop = asyncio.get_running_loop()
            blocker = loop.create_task(
                controller.submit("probe", ("block", 1, 2), tenant="hog")
            )
            await spin()
            assert backend.entered.is_set()
            hogs = [
                loop.create_task(
                    controller.submit("probe", (i, 1, 2), tenant="hog")
                )
                for i in (1, 2)  # fills the depth-2 queue
            ]
            await spin()
            # A light tenant arrives at the full queue: instead of
            # shedding the light arrival (the FIFO behaviour), the
            # hog's newest queued request is evicted to make room.
            light = loop.create_task(
                controller.submit("probe", (9, 1, 2), tenant="light")
            )
            await spin()
            backend.release.set()
            assert await light == ("probe", (9, 1, 2))
            assert await blocker == ("probe", ("block", 1, 2))
            assert await hogs[0] == ("probe", (1, 1, 2))
            with pytest.raises(RequestRejected) as exc:
                await hogs[1]
            assert exc.value.code == CODE_SHED
            counters = controller.obs.snapshot()["counters"]
            assert counters["serve.shed.evicted"] == 1
            assert counters["serve.tenant.hog.rejected"] == 1
            assert "serve.tenant.light.rejected" not in counters
            await controller.drain()

        run(scenario())

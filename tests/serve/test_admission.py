"""Admission-pipeline tests: the overload edge cases.

Time-dependent paths (bucket refill, queued-deadline expiry) run on the
virtual-time loop from ``conftest`` — no real sleeping, exact timing.
"""

import asyncio
import gc
import weakref

import pytest

from repro.errors import FrontendError, RequestRejected
from repro.serve.admission import (
    CODE_DEADLINE,
    CODE_DRAINING,
    CODE_RATE_LIMIT,
    CODE_SHED,
    TENANT_BURST,
    AdmissionConfig,
    AdmissionController,
    TokenBucket,
)

from .conftest import EchoBackend, GateBackend, advance, run

#: A full token bucket: the requests a tenant may send at once.
BURST = int(TENANT_BURST)


async def drain_bucket_to_one(controller, tenant="default"):
    """Spend all but the last token of ``tenant``'s bucket."""
    for _ in range(BURST - 1):
        await controller.submit("probe", ("warm-up", 1, 2), tenant=tenant)


async def spin(n: int = 10) -> None:
    """Give the event loop a few cycles to move dispatcher tasks."""
    for _ in range(n):
        await asyncio.sleep(0)


class TestConfigValidation:
    def test_unknown_policy(self):
        with pytest.raises(FrontendError, match="policy"):
            AdmissionConfig(overload_policy="panic")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_queue_depth", 0),
            ("max_concurrency", 0),
            ("batch_max", 0),
            ("tenant_rate", 0.0),
        ],
    )
    def test_bad_numbers(self, field, value):
        with pytest.raises(FrontendError):
            AdmissionConfig(**{field: value})


class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(rate=1.0, burst=3.0, now=0.0)
        assert all(bucket.try_take(0.0) for _ in range(3))
        assert not bucket.try_take(0.0)

    def test_refill_timing_is_exact(self):
        bucket = TokenBucket(rate=2.0, burst=2.0, now=0.0)
        bucket.try_take(0.0)
        bucket.try_take(0.0)
        # 2 tokens/s: one token exists at exactly t=0.5, not before.
        assert not bucket.try_take(0.49)
        assert bucket.try_take(0.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        bucket.try_take(0.0)
        bucket._refill(100.0)
        assert bucket.tokens == 2.0

    def test_clock_going_backwards_is_ignored(self):
        bucket = TokenBucket(rate=1.0, burst=1.0, now=10.0)
        bucket.try_take(10.0)
        assert not bucket.try_take(5.0)  # no refill from the past
        assert bucket.try_take(11.0)


class TestTenantRateLimit:
    def controller(self, **overrides):
        config = AdmissionConfig(
            tenant_rate=1.0, max_concurrency=1,
            **overrides,
        )
        return AdmissionController(
            EchoBackend(), config)

    def test_exhaustion_then_refill(self):
        async def scenario():
            controller = self.controller()
            controller.start()
            try:
                # A full bucket admitted, the next rejected before queueing.
                for _ in range(BURST):
                    await controller.submit("probe", (1, 1, 2))
                with pytest.raises(RequestRejected) as exc:
                    await controller.submit("probe", (1, 1, 2))
                assert exc.value.code == CODE_RATE_LIMIT
                # Exactly one token after one second at rate=1.
                advance(1.0)
                await controller.submit("probe", (1, 1, 2))
                with pytest.raises(RequestRejected):
                    await controller.submit("probe", (1, 1, 2))
            finally:
                await controller.drain()

        run(scenario())

    def test_buckets_are_per_tenant(self):
        async def scenario():
            controller = self.controller()
            controller.start()
            try:
                for _ in range(BURST):
                    await controller.submit("probe", (1, 1, 2), tenant="a")
                with pytest.raises(RequestRejected):
                    await controller.submit("probe", (1, 1, 2), tenant="a")
                # Tenant b's bucket is untouched by a's exhaustion.
                await controller.submit("probe", (1, 1, 2), tenant="b")
            finally:
                await controller.drain()

        run(scenario())

    def test_rejections_observable_per_tenant(self):
        async def scenario():
            controller = self.controller()
            controller.start()
            try:
                for _ in range(BURST):
                    await controller.submit("probe", (1, 1, 2), tenant="a")
                with pytest.raises(RequestRejected):
                    await controller.submit("probe", (1, 1, 2), tenant="a")
                snapshot = controller.obs.snapshot()
                counters = snapshot["counters"]
                assert counters["serve.tenant.a.admitted"] == BURST
                assert counters["serve.tenant.a.rejected"] == 1
                assert counters[f"serve.rejected.{CODE_RATE_LIMIT}"] == 1
            finally:
                await controller.drain()

        run(scenario())


class TestDeadlines:
    def test_deadline_expired_while_queued(self):
        async def scenario():
            backend = GateBackend()
            controller = AdmissionController(
                backend,
                AdmissionConfig(max_concurrency=1, batch_max=1),
            )
            controller.start()
            loop = asyncio.get_running_loop()
            # First request occupies the only dispatcher inside the
            # gated backend.
            blocker = loop.create_task(
                controller.submit("probe", ("blocker", 1, 2))
            )
            await spin()
            assert backend.entered.is_set()
            # Second request is admitted and waits in the queue with a
            # 5-second deadline...
            waiter = loop.create_task(
                controller.submit(
                    "probe", ("late", 1, 2), deadline_s=5.0
                )
            )
            await spin()
            assert controller.queue_depth == 1
            # ...which expires before the dispatcher frees up.
            advance(10.0)
            backend.release.set()
            with pytest.raises(RequestRejected) as exc:
                await waiter
            assert exc.value.code == CODE_DEADLINE
            assert await blocker == ("probe", ("blocker", 1, 2))
            # The expired request never reached the backend.
            assert [s for call in backend.probe_calls for s in call] == [
                ("blocker", 1, 2)
            ]
            counters = controller.obs.snapshot()["counters"]
            assert counters["serve.deadline.queued"] == 1
            await controller.drain()

        run(scenario())

    def test_unexpired_deadline_completes(self):
        async def scenario():
            controller = AdmissionController(
                EchoBackend(),
                AdmissionConfig(max_concurrency=1),
            )
            controller.start()
            try:
                result = await controller.submit(
                    "probe", (1, 1, 2), deadline_s=60.0
                )
                assert result == ("probe", (1, 1, 2))
            finally:
                await controller.drain()

        run(scenario())

    def test_a_waiting_backend_is_cancelled_at_the_batch_deadline(self):
        # Every request of the batch carries a deadline, so the gated
        # call is awaited under the most patient one (0.05 s of real
        # time) and cancelled then: the gate never opens, and the
        # backend answers nothing.
        async def scenario():
            backend = GateBackend()
            controller = AdmissionController(
                backend, AdmissionConfig(max_concurrency=1))
            controller.start()
            loop = asyncio.get_running_loop()
            started = loop.time()
            answers = await asyncio.gather(*(
                settle(controller.submit("probe", (v, 1, 2), deadline_s=d))
                for v, d in ((1, 0.02), (2, 0.05))
            ))
            assert loop.time() - started < 1.0
            assert answers == [CODE_DEADLINE, CODE_DEADLINE]
            assert backend.entered.is_set() and backend.probe_calls == []
            snapshot = controller.obs.snapshot()
            assert snapshot["counters"]["serve.deadline.inflight"] == 2
            assert snapshot["histograms"]["serve.batch.size"]["max"] == 2
            assert await controller.drain(timeout_s=5.0) is True

        run(scenario())

    @pytest.mark.parametrize("deadline_s", [float("nan"), "soon", [1]])
    def test_a_deadline_that_is_no_number_is_refused_before_any_stage(
        self, deadline_s
    ):
        # NaN compares false with every clock: admitted, it would never
        # expire, and it would reach the loop's timer heap as ``when``.
        async def scenario():
            backend = EchoBackend()
            controller = AdmissionController(backend)
            controller.start()
            try:
                with pytest.raises(FrontendError, match="not a number"):
                    await controller.submit(
                        "probe", (1, 1, 2), deadline_s=deadline_s
                    )
                assert backend.probe_calls == []
                counters = controller.obs.snapshot()["counters"]
                assert counters["serve.requests"] == 0
                # inf is a number: it means none.
                assert await controller.submit(
                    "probe", (1, 1, 2), deadline_s=float("inf")
                ) == ("probe", (1, 1, 2))
            finally:
                await controller.drain()

        run(scenario())


class TestOverloadPolicies:
    def test_shed_rejects_when_queue_full(self):
        async def scenario():
            backend = GateBackend()
            controller = AdmissionController(
                backend,
                AdmissionConfig(
                    max_queue_depth=2, max_concurrency=1, batch_max=1,
                    overload_policy="shed",
                ),
            )
            controller.start()
            loop = asyncio.get_running_loop()
            tasks = [
                loop.create_task(controller.submit("probe", (0, 1, 2)))
            ]
            await spin()
            assert backend.entered.is_set()  # first is in flight
            tasks += [
                loop.create_task(controller.submit("probe", (i, 1, 2)))
                for i in (1, 2)  # fills the depth-2 queue exactly
            ]
            await spin()
            with pytest.raises(RequestRejected) as exc:
                await controller.submit("probe", (99, 1, 2))
            assert exc.value.code == CODE_SHED
            backend.release.set()
            assert len(await asyncio.gather(*tasks)) == 3
            counters = controller.obs.snapshot()["counters"]
            assert counters["serve.shed"] == 1
            await controller.drain()

        run(scenario())

    def test_queue_policy_waits_instead_of_shedding(self):
        async def scenario():
            backend = GateBackend()
            controller = AdmissionController(
                backend,
                AdmissionConfig(
                    max_queue_depth=2, max_concurrency=1, batch_max=1,
                    overload_policy="queue",
                ),
            )
            controller.start()
            loop = asyncio.get_running_loop()
            tasks = [
                loop.create_task(controller.submit("probe", (i, 1, 2)))
                for i in range(4)  # more than fits: the excess waits
            ]
            await spin()
            # Nothing was rejected; the overflow submitter is parked in
            # the queue's put().
            assert all(not t.done() for t in tasks)
            backend.release.set()
            results = await asyncio.gather(*tasks)
            assert len(results) == 4
            counters = controller.obs.snapshot()["counters"]
            assert "serve.shed" not in counters
            await controller.drain()

        run(scenario())

    def test_policies_equivalent_below_saturation(self):
        # At sub-saturation load the policy must be unobservable: both
        # complete every request with nothing shed.
        async def one_policy(policy):
            backend = EchoBackend()
            controller = AdmissionController(
                backend,
                AdmissionConfig(
                    max_queue_depth=4, max_concurrency=2,
                    overload_policy=policy,
                ),
            )
            controller.start()
            try:
                results = []
                for i in range(40):
                    results.append(
                        await controller.submit(
                            "probe", (i, 1, 2), tenant=f"t{i % 3}"
                        )
                    )
                counters = controller.obs.snapshot()["counters"]
                assert counters["serve.admitted"] == 40
                assert "serve.shed" not in counters
                return results
            finally:
                await controller.drain()

        shed = run(one_policy("shed"))
        queued = run(one_policy("queue"))
        assert shed == queued

    def test_batching_coalesces_consecutive_probes(self):
        async def scenario():
            backend = GateBackend()
            controller = AdmissionController(
                backend,
                AdmissionConfig(
                    max_queue_depth=16, max_concurrency=1, batch_max=8,
                ),
            )
            controller.start()
            loop = asyncio.get_running_loop()
            blocker = loop.create_task(
                controller.submit("probe", ("blocker", 1, 2))
            )
            await spin()
            assert backend.entered.is_set()
            tasks = [
                loop.create_task(controller.submit("probe", (i, 1, 2)))
                for i in range(5)
            ]
            await spin()
            backend.release.set()
            await asyncio.gather(blocker, *tasks)
            # The 5 queued probes went to the backend as one batch.
            assert [len(c) for c in backend.probe_calls] == [1, 5]
            await controller.drain()

        run(scenario())


class TestDrain:
    def test_drain_completes_in_flight_work(self):
        async def scenario():
            backend = GateBackend()
            controller = AdmissionController(
                backend,
                AdmissionConfig(max_concurrency=1, batch_max=1),
            )
            controller.start()
            loop = asyncio.get_running_loop()
            in_flight = loop.create_task(
                controller.submit("probe", ("work", 1, 2))
            )
            await spin()
            assert backend.entered.is_set()
            drain = loop.create_task(controller.drain(timeout_s=5.0))
            await spin()
            # New work is refused the moment draining begins.
            with pytest.raises(RequestRejected) as exc:
                await controller.submit("probe", ("late", 1, 2))
            assert exc.value.code == CODE_DRAINING
            backend.release.set()
            # The admitted request still completes, and the drain is
            # clean.
            assert await in_flight == ("probe", ("work", 1, 2))
            assert await drain is True

        run(scenario())

    def test_unclean_drain_rejects_stragglers(self):
        async def scenario():
            backend = GateBackend()
            controller = AdmissionController(
                backend,
                AdmissionConfig(max_concurrency=1, batch_max=1),
            )
            controller.start()
            loop = asyncio.get_running_loop()
            stuck = loop.create_task(
                controller.submit("probe", ("stuck", 1, 2))
            )
            await spin()
            assert backend.entered.is_set()
            # The backend never comes back in time: drain times out,
            # reports unclean, and the stuck waiter is settled (not
            # hung forever on a dead future).
            assert await controller.drain(timeout_s=0.05) is False
            with pytest.raises(RequestRejected) as exc:
                await stuck
            assert exc.value.code == CODE_DRAINING

        run(scenario())

    @pytest.mark.parametrize("discipline", ["fifo", "drr"])
    def test_a_submitter_waiting_for_a_slot_is_refused_by_an_unclean_drain(
        self, discipline
    ):
        # a is in flight and never returns, b fills the one slot, c
        # waits for it.  The drain's emptying of the queue must not hand
        # c the slot: c would be admitted into a queue no dispatcher is
        # left to serve, and its caller would hang.
        async def scenario():
            backend = GateBackend()
            controller = AdmissionController(
                backend,
                AdmissionConfig(
                    max_queue_depth=1, max_concurrency=1, batch_max=1,
                    overload_policy="queue", queue_discipline=discipline,
                ),
            )
            controller.start()
            loop = asyncio.get_running_loop()
            tasks = [
                loop.create_task(controller.submit("probe", (name, 1, 2)))
                for name in "abc"
            ]
            await spin()
            assert backend.entered.is_set() and controller.queue_depth == 1
            assert await controller.drain(timeout_s=0.05) is False
            done, pending = await asyncio.wait(tasks, timeout=1.0)
            assert not pending, "a submitter hangs after the drain"
            for task in tasks:
                with pytest.raises(RequestRejected) as exc:
                    task.result()
                assert exc.value.code == CODE_DRAINING
            assert controller.queue_depth == 0
            counters = controller.obs.snapshot()["counters"]
            assert counters["serve.admitted"] == 2
            assert counters[f"serve.rejected.{CODE_DRAINING}"] == 3
            assert backend.probe_calls == []

        run(scenario())

    def test_drain_idempotent_on_idle_controller(self):
        async def scenario():
            controller = AdmissionController(
                EchoBackend(), AdmissionConfig())
            controller.start()
            assert await controller.drain() is True

        run(scenario())


    def test_requests_nobody_waits_for_never_reach_the_backend(self):
        # What connection_lost does to a departed peer's requests:
        # admitted, then cancelled before a dispatcher got to them.
        async def scenario():
            backend = EchoBackend()
            controller = AdmissionController(backend)
            loop = asyncio.get_running_loop()
            waiters = [
                loop.create_task(controller.submit("probe", (i, 1, 2)))
                for i in range(50)
            ]
            await spin()
            assert controller.queue_depth == 50
            for waiter in waiters:
                waiter.cancel()
            await asyncio.gather(*waiters, return_exceptions=True)
            controller.start()
            kept = await controller.submit("probe", ("kept", 1, 2))
            assert kept == ("probe", ("kept", 1, 2))
            assert await controller.drain(timeout_s=5.0) is True
            assert backend.probe_calls == [[("kept", 1, 2)]]
            counters = controller.obs.snapshot()["counters"]
            assert counters["serve.abandoned"] == 50
            assert counters["serve.completed"] == 1

        run(scenario())

    @pytest.mark.parametrize("timeout_s", [None, 0.0])
    def test_drain_lets_go_of_the_backend_before_it_returns(self, timeout_s):
        async def scenario():
            backend = EchoBackend()
            alive = weakref.ref(backend)
            controller = AdmissionController(backend)
            controller.start()
            await controller.submit("probe", (1, 1, 2))
            await controller.drain(timeout_s)
            # No loop turn between drain() and the check.
            del controller, backend
            gc.collect()
            return alive() is not None

        assert run(scenario()) is False


class TestAdmissionEdgeRaces:
    """The timing races at the pipeline's stage boundaries."""

    def test_deadline_already_expired_at_submit(self):
        # A zero-budget request is admitted (the bucket and queue know
        # nothing of deadlines) but must die at dispatch without
        # costing the backend anything.
        async def scenario():
            backend = EchoBackend()
            controller = AdmissionController(
                backend, AdmissionConfig(max_concurrency=1))
            controller.start()
            try:
                with pytest.raises(RequestRejected) as exc:
                    await controller.submit(
                        "probe", (1, 1, 2), deadline_s=0.0
                    )
                assert exc.value.code == CODE_DEADLINE
                assert backend.probe_calls == []
                counters = controller.obs.snapshot()["counters"]
                assert counters["serve.deadline.queued"] == 1
            finally:
                await controller.drain()

        run(scenario())

    def test_drain_racing_a_dispatcher_mid_batch(self):
        # Drain begins while a batch is held inside the backend and
        # more work sits queued behind it: nothing admitted may be
        # abandoned — the dispatcher finishes the in-flight batch,
        # then drains the queue, and only then does drain() return.
        async def scenario():
            backend = GateBackend()
            controller = AdmissionController(
                backend,
                AdmissionConfig(max_concurrency=1, batch_max=2),
            )
            controller.start()
            loop = asyncio.get_running_loop()
            in_flight = loop.create_task(
                controller.submit("probe", ("flying", 1, 2))
            )
            await spin()
            assert backend.entered.is_set()
            queued = [
                loop.create_task(controller.submit("probe", (i, 1, 2)))
                for i in range(2)
            ]
            await spin()
            assert controller.queue_depth == 2
            drain = loop.create_task(controller.drain(timeout_s=5.0))
            await spin()
            assert controller.draining
            backend.release.set()
            assert await in_flight == ("probe", ("flying", 1, 2))
            results = await asyncio.gather(*queued)
            assert results == [("probe", (i, 1, 2)) for i in range(2)]
            assert await drain is True
            counters = controller.obs.snapshot()["counters"]
            assert f"serve.rejected.{CODE_DRAINING}" not in counters

        run(scenario())

    def test_token_refill_exactly_at_boundary_tick(self):
        # 2 tokens/s from empty: the token exists at exactly +0.5 s
        # (powers of two, so the arithmetic is exact in binary), and
        # the tick before it still rejects.
        async def scenario():
            controller = AdmissionController(
                EchoBackend(),
                AdmissionConfig(tenant_rate=2.0, max_concurrency=1),
            )
            controller.start()
            try:
                await drain_bucket_to_one(controller)
                await controller.submit("probe", (1, 1, 2))
                advance(0.25)
                with pytest.raises(RequestRejected) as exc:
                    await controller.submit("probe", (2, 1, 2))
                assert exc.value.code == CODE_RATE_LIMIT
                advance(0.25)  # exactly the refill boundary
                await controller.submit("probe", (3, 1, 2))
                with pytest.raises(RequestRejected):
                    await controller.submit("probe", (4, 1, 2))
            finally:
                await controller.drain()

        run(scenario())


# ----------------------------------------------------------------------
# The dispatch path: one await, on the loop
# ----------------------------------------------------------------------


class ClockedEchoBackend(EchoBackend):
    """Echo that computes for ``cost_s`` seconds of the loop's clock a call."""

    def __init__(self, cost_s: float) -> None:
        super().__init__()
        self.cost_s = cost_s

    async def probe_many(self, specs):
        advance(self.cost_s)
        return await super().probe_many(specs)

    async def scan_many(self, specs):
        advance(self.cost_s)
        return await super().scan_many(specs)


async def settle(awaitable):
    """An answer, or the code of the rejection that took its place."""
    try:
        return await awaitable
    except RequestRejected as exc:
        return exc.code


def queued(controller, *requests):
    """Submit each ``(op, spec, options)`` as its own task, in order."""
    loop = asyncio.get_running_loop()
    return [
        loop.create_task(settle(controller.submit(op, spec, **options)))
        for op, spec, options in requests
    ]


def one_path(scenario, config: AdmissionConfig, *, cost_s: float = 0.0):
    """Run ``scenario(controller)`` over a computing echo backend;
    return its answers, the backend's call logs and every metric."""
    backend = ClockedEchoBackend(cost_s)

    async def go():
        controller = AdmissionController(backend, config)
        answers = await scenario(controller)
        if not controller.draining:
            assert await controller.drain(timeout_s=5.0) is True
        return answers, controller.obs.snapshot()

    answers, snapshot = run(go())
    return answers, backend.probe_calls, backend.scan_calls, snapshot


class TestBothDispatchKinds:
    """The pipeline's scenarios on the one dispatch path, each pinned to
    its answers, call log and metrics (the name is from when the loop
    and a thread pool were held to each other on them).

    A computing backend never yields while it runs, so work is queued
    before the dispatchers start instead of behind a gated batch.
    """

    def test_token_bucket_boundary_ticks(self):
        async def scenario(controller):
            controller.start()
            await drain_bucket_to_one(controller)
            out = [await settle(controller.submit("probe", (1, 1, 2)))]
            advance(0.25)
            out.append(await settle(controller.submit("probe", (2, 1, 2))))
            advance(0.25)  # exactly the refill boundary
            out.append(await settle(controller.submit("probe", (3, 1, 2))))
            out.append(await settle(controller.submit("probe", (4, 1, 2))))
            return out

        answers, calls, _, snapshot = one_path(
            scenario,
            AdmissionConfig(tenant_rate=2.0, max_concurrency=1),
        )
        assert answers == [
            ("probe", (1, 1, 2)), CODE_RATE_LIMIT,
            ("probe", (3, 1, 2)), CODE_RATE_LIMIT,
        ]
        assert calls[BURST - 1:] == [[(1, 1, 2)], [(3, 1, 2)]]
        assert snapshot["counters"][f"serve.rejected.{CODE_RATE_LIMIT}"] == 2

    @pytest.mark.parametrize("policy", ["shed", "queue"])
    def test_shed_or_queue_at_a_full_queue(self, policy):
        async def scenario(controller):
            tasks = queued(
                controller, *(("probe", (i, 1, 2), {}) for i in range(4))
            )
            await spin()
            controller.start()
            return await asyncio.gather(*tasks)

        answers, calls, _, snapshot = one_path(
            scenario,
            AdmissionConfig(
                max_queue_depth=2, max_concurrency=1, batch_max=1,
                overload_policy=policy,
            ),
        )
        served = [("probe", (i, 1, 2)) for i in range(4)]
        if policy == "shed":
            assert answers == served[:2] + [CODE_SHED, CODE_SHED]
            assert snapshot["counters"]["serve.shed"] == 2
        else:
            assert answers == served and len(calls) == 4

    def test_drr_serves_fairly_and_evicts_the_largest_backlog(self):
        async def scenario(controller):
            tasks = queued(
                controller,
                *(("probe", (i, 1, 2), {"tenant": "hog"}) for i in range(4)),
                *(("probe", (i, 1, 2), {"tenant": "light"}) for i in (8, 9)),
            )
            await spin()
            controller.start()
            return await asyncio.gather(*tasks)

        answers, calls, _, snapshot = one_path(
            scenario,
            AdmissionConfig(
                max_queue_depth=4, max_concurrency=1, batch_max=1,
                queue_discipline="drr",
            ),
        )
        # The light arrivals evicted the hog's two newest, and the two
        # tenants then took turns.
        assert answers[2:4] == [CODE_SHED, CODE_SHED]
        assert [call[0][0] for call in calls] == [0, 8, 1, 9]
        assert snapshot["counters"]["serve.shed.evicted"] == 2

    def test_queued_deadline_expiry(self):
        async def scenario(controller):
            tasks = queued(
                controller,
                ("probe", ("late", 1, 2), {"deadline_s": 5.0}),
                ("probe", ("patient", 1, 2), {"deadline_s": 60.0}),
                ("scan", (1, 2), {}),
            )
            await spin()
            advance(10.0)
            controller.start()
            return await asyncio.gather(*tasks)

        answers, calls, scans, snapshot = one_path(
            scenario, AdmissionConfig(max_concurrency=1)
        )
        assert answers == [
            CODE_DEADLINE, ("probe", ("patient", 1, 2)), ("scan", (1, 2)),
        ]
        assert calls == [[("patient", 1, 2)]] and scans == [[(1, 2)]]
        assert snapshot["counters"]["serve.deadline.queued"] == 1

    def test_in_flight_deadline_is_settled_when_the_answer_returns(self):
        async def scenario(controller):
            controller.start()
            tasks = queued(
                controller,
                ("probe", ("short", 1, 2), {"deadline_s": 5.0}),
                ("probe", ("long", 1, 2), {"deadline_s": 60.0}),
                ("probe", ("none", 1, 2), {}),
            )
            return await asyncio.gather(*tasks)

        answers, calls, _, snapshot = one_path(
            scenario, AdmissionConfig(max_concurrency=1), cost_s=10.0
        )
        # One batch spent 10 s: the 5-second request is refused, not
        # answered late; the others are answered.
        assert calls == [[("short", 1, 2), ("long", 1, 2), ("none", 1, 2)]]
        assert answers == [
            CODE_DEADLINE, ("probe", ("long", 1, 2)), ("probe", ("none", 1, 2)),
        ]
        assert snapshot["counters"]["serve.deadline.inflight"] == 1
        assert snapshot["histograms"]["serve.latency.wall"]["max"] == 10.0

    def test_abandoned_waiters_never_reach_the_backend(self):
        async def scenario(controller):
            loop = asyncio.get_running_loop()
            waiters = [
                loop.create_task(controller.submit("probe", (i, 1, 2)))
                for i in range(50)
            ]
            await spin()
            for waiter in waiters:
                waiter.cancel()
            await asyncio.gather(*waiters, return_exceptions=True)
            controller.start()
            return await controller.submit("probe", ("kept", 1, 2))

        answer, calls, _, snapshot = one_path(scenario, AdmissionConfig())
        assert answer == ("probe", ("kept", 1, 2))
        assert calls == [[("kept", 1, 2)]]
        assert snapshot["counters"]["serve.abandoned"] == 50

    def test_batch_coalescing_stops_at_an_op_change(self):
        async def scenario(controller):
            tasks = queued(
                controller,
                *(("probe", (i, 1, 2), {}) for i in range(5)),
                ("scan", (1, 2), {}),
                ("scan", (2, 2), {}),
                ("probe", (9, 1, 2), {}),
            )
            await spin()
            controller.start()
            return await asyncio.gather(*tasks)

        answers, calls, scans, snapshot = one_path(
            scenario, AdmissionConfig(max_concurrency=2, batch_max=8)
        )
        assert [len(call) for call in calls] == [5, 1]
        assert scans == [[(1, 2), (2, 2)]]
        assert answers[5:7] == [("scan", (1, 2)), ("scan", (2, 2))]
        assert snapshot["histograms"]["serve.batch.size"]["max"] == 5

    @pytest.mark.parametrize("clean", [True, False])
    def test_drain(self, clean):
        async def scenario(controller):
            tasks = queued(
                controller, *(("probe", (i, 1, 2), {}) for i in range(3))
            )
            await spin()
            if clean:
                controller.start()
            # Unclean: nothing dispatches, the drain times out at once
            # and settles every queued waiter.
            drained = await controller.drain(timeout_s=5.0 if clean else 0.0)
            late = await settle(controller.submit("probe", ("late", 1, 2)))
            return drained, await asyncio.gather(*tasks), late

        (drained, answers, late), calls, _, snapshot = one_path(
            scenario, AdmissionConfig(max_concurrency=1, batch_max=2)
        )
        assert drained is clean and late == CODE_DRAINING
        if clean:
            assert answers == [("probe", (i, 1, 2)) for i in range(3)]
            assert calls == [[(0, 1, 2), (1, 1, 2)], [(2, 1, 2)]]
        else:
            assert answers == [CODE_DRAINING] * 3 and calls == []
        assert snapshot["counters"]["serve.drains"] == 1


def test_a_batch_computed_on_the_loop_is_answered_before_the_next():
    events = []

    class Recording(EchoBackend):
        async def probe_many(self, specs):
            events.append(("computed", specs[0][0]))
            return await super().probe_many(specs)

    async def scenario():
        controller = AdmissionController(
            Recording(), AdmissionConfig(max_concurrency=1, batch_max=2)
        )

        async def one(value):
            await controller.submit("probe", (value, 1, 2))
            events.append(("answered", value))

        loop = asyncio.get_running_loop()
        tasks = [loop.create_task(one(value)) for value in range(4)]
        await spin()
        controller.start()  # two batches queued
        await asyncio.gather(*tasks)
        await controller.drain()

    run(scenario())
    assert events == [
        ("computed", 0), ("answered", 0), ("answered", 1),
        ("computed", 2), ("answered", 2), ("answered", 3),
    ]

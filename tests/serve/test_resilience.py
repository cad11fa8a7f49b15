"""Resilient-client tests: taxonomy, budgets, retries, hedging.

Replicas are in-process fakes, and every test runs on the virtual-time
loop: retry/backoff/deadline paths and the hedge races (the hedge timer
lives in ``asyncio.wait``) wait no real time.
"""

import asyncio

import pytest

from repro.errors import (
    BackendError,
    FrontendError,
    RequestRejected,
    TransportError,
)
from repro.serve.admission import CODE_DEADLINE, CODE_DRAINING, CODE_SHED
from repro.serve.resilience import (
    HEDGE_MAX_S,
    HEDGE_MIN_SAMPLES,
    RETRYABLE_CODES,
    ResilientClient,
    ResilientClientConfig,
    RetryBudget,
    RetryBudgetConfig,
    is_retryable,
)

from .conftest import advance, run


class FakeReplica:
    """One frontend stand-in: scripted delay and failures, call log."""

    def __init__(self, name, *, delay_s=0.0, fail=None, fail_times=None):
        self.name = name
        self.delay_s = delay_s
        #: Zero-arg factory for the exception each call raises.
        self.fail = fail
        #: Raise only on the first N calls (``None`` = always).
        self.fail_times = fail_times
        self.calls = 0
        self.closed = False

    async def _respond(self, result):
        self.calls += 1
        call = self.calls
        if self.delay_s:
            await asyncio.sleep(self.delay_s)
        if self.fail is not None and (
            self.fail_times is None or call <= self.fail_times
        ):
            raise self.fail()
        return result

    async def probe(self, value, t1, t2, *, tenant="default",
                    deadline_ms=None):
        return await self._respond(("probe", self.name, value))

    async def scan(self, t1, t2, *, tenant="default", deadline_ms=None):
        return await self._respond(("scan", self.name, t1, t2))

    async def ping(self):
        return not self.closed

    async def close(self):
        self.closed = True


def client(replicas, **overrides):
    overrides.setdefault("hedge", False)
    return ResilientClient(replicas, ResilientClientConfig(**overrides))


class TestTaxonomy:
    def test_transport_and_backend_errors_retry(self):
        assert is_retryable(TransportError("torn"))
        assert is_retryable(BackendError("boom"))

    def test_draining_retries_elsewhere(self):
        assert is_retryable(RequestRejected(CODE_DRAINING, "restarting"))
        assert CODE_DRAINING in RETRYABLE_CODES

    @pytest.mark.parametrize(
        "code", [CODE_DEADLINE, CODE_SHED, "rate-limit"]
    )
    def test_policy_rejections_are_fatal(self, code):
        # Retrying these would defeat the mechanism rejecting us.
        assert not is_retryable(RequestRejected(code, "no"))

    def test_unknown_exceptions_are_fatal(self):
        assert not is_retryable(ValueError("bug"))
        assert not is_retryable(FrontendError("bad request"))


class TestRetryBudget:
    def test_config_validation(self):
        with pytest.raises(FrontendError):
            RetryBudgetConfig(ratio=1.5)
        with pytest.raises(FrontendError):
            RetryBudgetConfig(reserve=-1.0)
        with pytest.raises(FrontendError):
            RetryBudgetConfig(reserve=10.0, cap=5.0)

    def test_starts_at_reserve(self):
        budget = RetryBudget(RetryBudgetConfig(ratio=0.5, reserve=3.0))
        assert budget.balance == 3.0

    def test_withdraw_needs_a_whole_token(self):
        budget = RetryBudget(RetryBudgetConfig(ratio=0.5, reserve=0.0))
        budget.deposit()  # 0.5: not enough for a retry yet
        assert not budget.try_withdraw()
        budget.deposit()  # 1.0: exactly one retry
        assert budget.try_withdraw()
        assert not budget.try_withdraw()
        assert budget.denied == 2

    def test_balance_caps(self):
        budget = RetryBudget(
            RetryBudgetConfig(ratio=1.0, reserve=2.0, cap=2.0)
        )
        for _ in range(50):
            budget.deposit()
        assert budget.balance == 2.0

    def test_amplification_arithmetic_bound(self):
        # The token-bucket invariant behind the bench's gate: after N
        # primaries, withdrawals can never exceed ratio*N + reserve.
        config = RetryBudgetConfig(ratio=0.2, reserve=5.0, cap=100.0)
        budget = RetryBudget(config)
        n = 200
        withdrawn = 0
        for _ in range(n):
            budget.deposit()
            while budget.try_withdraw():  # adversarial: drain greedily
                withdrawn += 1
        assert withdrawn <= config.ratio * n + config.reserve
        assert budget.withdrawn == withdrawn


class TestRetries:
    def test_healthy_replica_costs_one_attempt(self):
        async def scenario():
            replica = FakeReplica("a")
            resilient = client([replica])
            assert await resilient.probe(7, 1, 2) == ("probe", "a", 7)
            assert resilient.stats.requests == 1
            assert resilient.stats.attempts == 1
            assert resilient.stats.amplification == 1.0

        run(scenario())

    def test_transport_error_fails_over_and_penalizes(self):
        async def scenario():
            torn = FakeReplica("torn", fail=lambda: TransportError("rst"))
            healthy = FakeReplica("ok")
            resilient = client([torn, healthy])
            assert await resilient.probe(1, 1, 2) == ("probe", "ok", 1)
            assert resilient.stats.retries == 1
            assert resilient.stats.failovers == 0  # the retry succeeded
            # Outlier ejection: the torn replica sits out the penalty
            # window, so the next primary skips it entirely.
            assert await resilient.probe(2, 1, 2) == ("probe", "ok", 2)
            assert torn.calls == 1
            # Penalty expires: the replica is eligible again.
            advance(10.0)
            torn.fail = None
            assert await resilient.probe(3, 1, 2) == ("probe", "torn", 3)

        run(scenario())

    def test_draining_rejection_retries_elsewhere(self):
        async def scenario():
            draining = FakeReplica(
                "draining",
                fail=lambda: RequestRejected(CODE_DRAINING, "rolling"),
            )
            healthy = FakeReplica("ok")
            resilient = client([draining, healthy])
            assert await resilient.scan(1, 2) == ("scan", "ok", 1, 2)
            assert resilient.stats.retries == 1

        run(scenario())

    def test_fatal_rejection_short_circuits(self):
        async def scenario():
            shedding = FakeReplica(
                "shed", fail=lambda: RequestRejected(CODE_SHED, "full")
            )
            healthy = FakeReplica("ok")
            resilient = client([shedding, healthy])
            with pytest.raises(RequestRejected) as exc:
                await resilient.probe(1, 1, 2)
            assert exc.value.code == CODE_SHED
            assert resilient.stats.attempts == 1
            assert resilient.stats.retries == 0
            assert healthy.calls == 0

        run(scenario())

    def test_exhausted_budget_stops_retrying(self):
        async def scenario():
            bad = [
                FakeReplica(n, fail=lambda: BackendError("down"))
                for n in ("a", "b")
            ]
            resilient = client(
                bad, max_attempts=5,
                budget=RetryBudgetConfig(ratio=0.0, reserve=1.0, cap=1.0),
            )
            with pytest.raises(BackendError):
                await resilient.probe(1, 1, 2)
            # One primary, one budgeted retry, then the denial breaks
            # the loop well short of max_attempts.
            assert resilient.stats.attempts == 2
            assert resilient.stats.retries == 1
            assert resilient.stats.budget_denied == 1
            assert resilient.budget.denied == 1

        run(scenario())

    def test_attempts_cap_raises_last_error(self):
        async def scenario():
            bad = FakeReplica("a", fail=lambda: BackendError("down"))
            resilient = client(
                [bad], max_attempts=3,
                budget=RetryBudgetConfig(ratio=1.0, reserve=10.0),
            )
            with pytest.raises(BackendError):
                await resilient.probe(1, 1, 2)
            assert resilient.stats.attempts == 3

        run(scenario())

    def test_deadline_expires_during_backoff(self):
        async def scenario():
            bad = FakeReplica("a", fail=lambda: TransportError("rst"))
            resilient = client(
                [bad, FakeReplica("b", fail=lambda: TransportError("rst"))],
                max_attempts=5, backoff_base_s=0.05,
            )
            with pytest.raises(RequestRejected) as exc:
                await resilient.probe(1, 1, 2, deadline_ms=1.0)
            # The backoff was clipped to the remaining deadline; the
            # loop's clock reached it exactly.
            assert exc.value.code == CODE_DEADLINE

        run(scenario())

    def test_expired_deadline_rejects_before_issuing(self):
        async def scenario():
            replica = FakeReplica("a")
            resilient = client([replica])
            with pytest.raises(RequestRejected) as exc:
                await resilient.probe(1, 1, 2, deadline_ms=0.0)
            assert exc.value.code == CODE_DEADLINE
            assert replica.calls == 0

        run(scenario())


class TestHedging:
    def test_hedge_rescues_slow_primary(self):
        async def scenario():
            slow = FakeReplica("slow", delay_s=0.3)
            fast = FakeReplica("fast")
            resilient = ResilientClient(
                [slow, fast],
                ResilientClientConfig(hedge=True, hedge_initial_s=0.01),
            )
            loop = asyncio.get_running_loop()
            started = loop.time()
            assert await resilient.probe(1, 1, 2) == ("probe", "fast", 1)
            assert loop.time() - started < 0.25  # beat the straggler
            assert resilient.stats.hedges == 1
            assert resilient.stats.hedge_wins == 1
            assert resilient.stats.attempts == 2
            assert resilient.stats.retries == 0

        run(scenario())

    def test_single_replica_never_hedges(self):
        async def scenario():
            only = FakeReplica("only", delay_s=0.05)
            resilient = ResilientClient(
                [only],
                ResilientClientConfig(hedge=True, hedge_initial_s=0.01),
            )
            assert await resilient.probe(1, 1, 2) == ("probe", "only", 1)
            assert resilient.stats.hedges == 0

        run(scenario())

    def test_empty_budget_denies_the_hedge(self):
        async def scenario():
            slow = FakeReplica("slow", delay_s=0.05)
            fast = FakeReplica("fast")
            resilient = ResilientClient(
                [slow, fast],
                ResilientClientConfig(
                    hedge=True, hedge_initial_s=0.01,
                    budget=RetryBudgetConfig(
                        ratio=0.0, reserve=0.0, cap=1.0
                    ),
                ),
            )
            # No tokens: the slow primary is waited out instead.
            assert await resilient.probe(1, 1, 2) == ("probe", "slow", 1)
            assert resilient.stats.hedges == 0
            assert resilient.budget.denied == 1
            assert fast.calls == 0

        run(scenario())

    def test_failed_hedge_keeps_waiting_for_primary(self):
        async def scenario():
            primary = FakeReplica("primary", delay_s=0.1)
            hedge = FakeReplica("hedge", fail=lambda: BackendError("down"))
            resilient = ResilientClient(
                [primary, hedge],
                ResilientClientConfig(hedge=True, hedge_initial_s=0.01),
            )
            assert await resilient.probe(1, 1, 2) == ("probe", "primary", 1)
            assert resilient.stats.hedges == 1
            assert resilient.stats.hedge_wins == 0
            assert resilient.stats.retries == 0

        run(scenario())

    def test_fatal_error_outranks_retryable_when_both_fail(self):
        async def scenario():
            shedding = FakeReplica(
                "shed", delay_s=0.05,
                fail=lambda: RequestRejected(CODE_SHED, "full"),
            )
            torn = FakeReplica("torn", fail=lambda: TransportError("rst"))
            resilient = ResilientClient(
                [shedding, torn],
                ResilientClientConfig(
                    hedge=True, hedge_initial_s=0.01, max_attempts=3
                ),
            )
            # The hedge tears (retryable) before the primary is shed
            # (fatal): the attempt must surface the fatal error so the
            # retry loop does not burn attempts on a dead request.
            with pytest.raises(RequestRejected) as exc:
                await resilient.probe(1, 1, 2)
            assert exc.value.code == CODE_SHED
            assert resilient.stats.attempts == 2

        run(scenario())

    def test_hedge_delay_tracks_observed_latency(self):
        async def scenario():
            replica = FakeReplica("a")
            resilient = ResilientClient(
                [replica],
                ResilientClientConfig(
                    hedge=False, hedge_initial_s=0.5, hedge_min_s=0.002,
                ),
            )
            assert resilient.hedge_delay_s() == 0.5  # no samples yet
            for i in range(HEDGE_MIN_SAMPLES):
                await resilient.probe(i, 1, 2)
            # Instant fakes: the tracked p95 collapses to the clamp
            # floor instead of the initial guess.
            assert resilient.hedge_delay_s() == 0.002

        run(scenario())


class TestClientSurface:
    def test_needs_at_least_one_replica(self):
        with pytest.raises(FrontendError):
            ResilientClient([])

    def test_config_validation(self):
        with pytest.raises(FrontendError):
            ResilientClientConfig(max_attempts=0)
        with pytest.raises(FrontendError):
            ResilientClientConfig(hedge_min_s=-0.1)
        with pytest.raises(FrontendError):
            ResilientClientConfig(hedge_min_s=HEDGE_MAX_S * 2)
        with pytest.raises(FrontendError):
            ResilientClientConfig(backoff_base_s=0.5, backoff_cap_s=0.1)

    def test_ping_any_replica(self):
        async def scenario():
            dead = FakeReplica("dead")
            dead.closed = True
            live = FakeReplica("live")
            resilient = client([dead, live])
            assert await resilient.ping() is True
            await resilient.close()
            assert dead.closed and live.closed
            assert await resilient.ping() is False

        run(scenario())

    def test_stats_serialise(self):
        resilient = client([FakeReplica("a")])
        payload = resilient.stats.to_dict()
        assert payload["requests"] == 0
        assert payload["amplification"] == 0.0
        assert set(payload) == {
            "requests", "attempts", "hedges", "hedge_wins", "retries",
            "budget_denied", "failovers", "amplification",
        }

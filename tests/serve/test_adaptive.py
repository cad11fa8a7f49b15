"""AIMD adaptive-concurrency tests.

The controller is pure arithmetic on explicit ``now`` values, so every
grow/shrink decision is asserted exactly; the end-to-end test drives it
through the admission controller on the virtual-time loop.
"""

import asyncio

import pytest

from repro.errors import FrontendError
from repro.obs import MetricsRegistry
from repro.serve.adaptive import AdaptiveConfig, AimdController
from repro.serve.admission import AdmissionConfig, AdmissionController

from .conftest import EchoBackend, GateBackend, advance, run


def feed(controller, latency_s, n=10):
    for _ in range(n):
        controller.record(latency_s)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_concurrency": 0},
            {"min_concurrency": 4, "max_concurrency": 2},
            {"target_p95_s": -1.0},
            {"target_p95_s": 0.0, "tolerance": 1.0},
            {"backoff_ratio": 0.0},
            {"backoff_ratio": 1.0},
            {"interval_s": 0.0},
            {"min_samples": 0},
            {"min_samples": 10, "window": 5},
        ],
    )
    def test_bad_config(self, kwargs):
        with pytest.raises(FrontendError):
            AdaptiveConfig(**kwargs)

    def test_gradient_mode_allows_zero_target(self):
        config = AdaptiveConfig(target_p95_s=0.0, tolerance=2.0)
        assert config.tolerance == 2.0


class TestAimdController:
    def controller(self, **overrides):
        defaults = dict(
            min_concurrency=1, max_concurrency=8, target_p95_s=0.1,
            interval_s=1.0, min_samples=5,
        )
        defaults.update(overrides)
        return AimdController(AdaptiveConfig(**defaults))

    def test_starts_at_max(self):
        assert self.controller().limit == 8

    def test_first_evaluation_only_arms_the_clock(self):
        controller = self.controller()
        feed(controller, 10.0)  # way over target
        assert controller.maybe_evaluate(0.0) == 8  # arms, no verdict
        assert controller.maybe_evaluate(1.0) == 4  # now it judges

    def test_no_verdict_inside_the_interval(self):
        controller = self.controller()
        controller.maybe_evaluate(0.0)
        feed(controller, 10.0)
        assert controller.maybe_evaluate(0.5) == 8

    def test_multiplicative_decrease_over_target(self):
        controller = self.controller()
        controller.maybe_evaluate(0.0)
        feed(controller, 0.5)  # p95 0.5 > target 0.1
        assert controller.maybe_evaluate(1.0) == 4
        feed(controller, 0.5)
        assert controller.maybe_evaluate(2.0) == 2
        assert controller.decreases == 2

    def test_additive_increase_under_target(self):
        controller = self.controller()
        controller.maybe_evaluate(0.0)
        feed(controller, 0.5)
        assert controller.maybe_evaluate(1.0) == 4  # make headroom
        feed(controller, 0.01)  # healthy again
        assert controller.maybe_evaluate(2.0) == 5  # +1, not a jump
        feed(controller, 0.01)
        assert controller.maybe_evaluate(3.0) == 6
        assert controller.increases == 2

    def test_limit_clamps_at_min_and_max(self):
        controller = self.controller(min_concurrency=2)
        controller.maybe_evaluate(0.0)
        for step in range(1, 10):
            feed(controller, 1.0)
            controller.maybe_evaluate(float(step))
        assert controller.limit == 2  # floor, not zero
        for step in range(10, 30):
            feed(controller, 0.01)
            controller.maybe_evaluate(float(step))
        assert controller.limit == 8  # ceiling, not unbounded

    def test_too_few_samples_is_a_noop(self):
        controller = self.controller(min_samples=5)
        controller.maybe_evaluate(0.0)
        feed(controller, 10.0, n=4)  # one short of a verdict
        assert controller.maybe_evaluate(1.0) == 8
        assert controller.decreases == 0

    def test_verdict_consumes_its_window(self):
        # The latencies behind a decrease must not also justify the
        # next one: after a verdict the window restarts empty.
        controller = self.controller()
        controller.maybe_evaluate(0.0)
        feed(controller, 10.0)
        assert controller.maybe_evaluate(1.0) == 4
        assert controller.maybe_evaluate(2.0) == 4  # no evidence left
        assert controller.snapshot()["window_count"] == 0.0

    def test_gradient_mode_backs_off_relative_to_floor(self):
        controller = self.controller(target_p95_s=0.0, tolerance=2.0)
        controller.maybe_evaluate(0.0)
        feed(controller, 0.1)  # establishes the 0.1 s floor
        assert controller.maybe_evaluate(1.0) == 8
        feed(controller, 0.15)  # 1.5x floor: inside tolerance
        assert controller.maybe_evaluate(2.0) == 8
        feed(controller, 0.25)  # 2.5x floor: over tolerance
        assert controller.maybe_evaluate(3.0) == 4
        assert controller.snapshot()["floor_p95_s"] == pytest.approx(0.1)

    def test_metrics_published(self):
        metrics = MetricsRegistry()
        controller = AimdController(
            AdaptiveConfig(target_p95_s=0.1, interval_s=1.0),
            metrics=metrics,
        )
        controller.maybe_evaluate(0.0)
        feed(controller, 10.0)
        controller.maybe_evaluate(1.0)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["serve.adaptive.decrease"] == 1
        assert snapshot["histograms"]["serve.adaptive.limit"]["count"] == 1

    def test_snapshot_keys(self):
        snapshot = self.controller().snapshot()
        assert set(snapshot) == {
            "limit", "increases", "decreases", "floor_p95_s",
            "window_count",
        }


class TestAdaptiveThroughAdmission:
    def test_adaptive_ceiling_above_pool_rejected(self):
        with pytest.raises(FrontendError, match="max_concurrency"):
            AdmissionConfig(
                max_concurrency=2,
                adaptive=AdaptiveConfig(max_concurrency=4),
            )

    def test_fixed_pool_exposes_no_adaptive_state(self):
        async def scenario():
            controller = AdmissionController(
                EchoBackend(), AdmissionConfig())
            controller.start()
            try:
                assert controller.adaptive_snapshot is None
                assert (
                    controller.concurrency_limit
                    == controller.config.max_concurrency
                )
            finally:
                await controller.drain()

        run(scenario())

    def adaptive_controller(self, backend):
        return AdmissionController(
            backend,
            AdmissionConfig(
                max_concurrency=4,
                adaptive=AdaptiveConfig(
                    min_concurrency=1, max_concurrency=4,
                    target_p95_s=0.5, interval_s=0.5, min_samples=1,
                ),
            ),
        )

    async def slow_cycle(self, controller, backend, spec):
        """One request whose virtual latency blows the 0.5 s target."""
        backend.entered.clear()
        backend.release.clear()
        task = asyncio.get_running_loop().create_task(
            controller.submit("probe", spec)
        )
        for _ in range(10):
            await asyncio.sleep(0)
        assert backend.entered.is_set()
        advance(2.0)  # in flight: latency lands at 2.0 s
        backend.release.set()
        assert await task == ("probe", spec)

    def test_limit_shrinks_under_latency_then_regrows(self):
        async def scenario():
            backend = GateBackend()
            controller = self.adaptive_controller(backend)
            controller.start()
            try:
                assert controller.concurrency_limit == 4
                # First slow completion arms the evaluation clock;
                # the second delivers the over-target verdict.
                await self.slow_cycle(controller, backend, (0, 1, 2))
                await self.slow_cycle(controller, backend, (1, 1, 2))
                assert controller.concurrency_limit == 2
                counters = controller.obs.snapshot()["counters"]
                assert counters["serve.adaptive.decrease"] == 1
                # Recovery: instant completions (zero virtual
                # latency) regrow the limit one step per interval.
                backend.release.set()
                for i in range(4):
                    advance(1.0)
                    await controller.submit("probe", (10 + i, 1, 2))
                assert controller.concurrency_limit == 4
                counters = controller.obs.snapshot()["counters"]
                assert counters["serve.adaptive.increase"] >= 2
                snapshot = controller.adaptive_snapshot
                assert snapshot is not None and snapshot["limit"] == 4.0
            finally:
                await controller.drain()

        run(scenario())

    def test_drain_with_parked_dispatchers_is_clean(self):
        # After a decrease, dispatchers above the limit park on the
        # condition variable; drain must cancel them without wedging.
        async def scenario():
            backend = GateBackend()
            controller = self.adaptive_controller(backend)
            controller.start()
            await self.slow_cycle(controller, backend, (0, 1, 2))
            await self.slow_cycle(controller, backend, (1, 1, 2))
            assert controller.concurrency_limit == 2
            backend.release.set()
            assert await controller.drain(timeout_s=5.0) is True

        run(scenario())

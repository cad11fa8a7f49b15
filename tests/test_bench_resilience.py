"""Tests for the resilience bench: schema, config, fault injectors.

The scenarios themselves run real TCP fleets on virtual time and are
run end to end by ``tests/test_bench_virtual_time.py``; here the cheap
invariants are pinned — report validation catches every malformed
shape, the quick config genuinely shortens the bursts, the fleet table
names every run the report holds, and the fault injectors behave as
advertised.
"""

import asyncio
import copy

import pytest

from repro.errors import FrontendError, TransportError
from repro.serve import vtime
from repro.serve.client import FrontendClient
from repro.bench.frontend import DelayBackend
from repro.bench.resilience import (
    BENCH,
    CHAOS_CELLS,
    DRR_LIGHT_SHED_BOUND,
    FLEET_CELLS,
    HEDGE_TAIL_BOUND,
    FailingBackend,
    ImpostorFrontend,
    ResilienceBenchConfig,
    SCHEMA_VERSION,
    quick_config,
    render_summary,
)


def stub_report() -> dict:
    claim = {
        "hedge_cuts_tail": True,
        "retry_budget_bounds_amplification": True,
        "drr_bounds_heavy_tenant_damage": True,
        "zero_loss_rolling_restart": True,
        "chaos_all_pass": True,
        "pass": True,
    }
    return {
        "bench": "resilience",
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "window": 8, "n_indexes": 4, "scheme": "wave", "n_shards": 4,
            "n_frontends": 3, "chaos_seeds": [7],
        },
        "scenarios": {
            "hedge_tail": {
                "pass": True, "slow_extra_ms": 80.0,
                "hedge_tail_ratio": 0.4,
                "hedged": {"p99_s": 0.02}, "unhedged": {"p99_s": 0.05},
            },
            "retry_budget": {
                "pass": True, "amplification": 1.2,
                "amplification_bound": 1.23,
            },
            "fair_queue": {
                "pass": True, "drr_light_shed_ratio": 0.0,
                "fifo_light_shed_ratio": 0.4,
            },
            "rolling_restart": {
                "pass": True, "lost_requests": 0, "offered": 300,
                "completed": 300, "restart": {"restarted": [0, 1, 2]},
            },
        },
        "chaos": [
            {"cell": "slow_frontend", "seed": 7, "pass": True},
            {"cell": "deadline_storm", "seed": 7, "pass": True},
        ],
        "headline": {
            "rolling_restart_lost_requests": 0.0,
            "hedge_tail_ratio": 0.4,
            "hedged_p99_s": 0.02,
            "unhedged_p99_s": 0.05,
            "retry_amplification": 1.2,
            "retry_amplification_bound": 1.23,
            "drr_light_shed_ratio": 0.0,
            "fifo_light_shed_ratio": 0.4,
            "chaos_cells_passed": 2,
            "chaos_cells_total": 2,
            "claim": claim,
        },
    }


class TestValidateReport:
    def test_stub_is_valid(self):
        BENCH.validate(stub_report())

    @pytest.mark.parametrize(
        "key", ["bench", "workload", "scenarios", "chaos", "headline"]
    )
    def test_missing_top_level_key(self, key):
        report = stub_report()
        del report[key]
        with pytest.raises(ValueError, match=key):
            BENCH.validate(report)

    def test_wrong_bench_name(self):
        report = stub_report()
        report["bench"] = "frontend"
        with pytest.raises(ValueError, match="bench"):
            BENCH.validate(report)

    @pytest.mark.parametrize(
        "scenario",
        ["hedge_tail", "retry_budget", "fair_queue", "rolling_restart"],
    )
    def test_missing_scenario(self, scenario):
        report = stub_report()
        del report["scenarios"][scenario]
        with pytest.raises(ValueError, match=scenario):
            BENCH.validate(report)

    def test_scenario_without_verdict(self):
        report = stub_report()
        del report["scenarios"]["fair_queue"]["pass"]
        with pytest.raises(ValueError, match="pass"):
            BENCH.validate(report)

    def test_empty_chaos_matrix(self):
        report = stub_report()
        report["chaos"] = []
        with pytest.raises(ValueError, match="chaos"):
            BENCH.validate(report)

    def test_chaos_cell_missing_key(self):
        report = stub_report()
        del report["chaos"][0]["seed"]
        with pytest.raises(ValueError, match="seed"):
            BENCH.validate(report)

    def test_missing_headline_key(self):
        report = stub_report()
        del report["headline"]["retry_amplification"]
        with pytest.raises(ValueError, match="retry_amplification"):
            BENCH.validate(report)

    def test_negative_lost_requests(self):
        report = stub_report()
        report["headline"]["rolling_restart_lost_requests"] = -1.0
        with pytest.raises(ValueError, match="negative"):
            BENCH.validate(report)

    def test_validation_does_not_mutate(self):
        report = stub_report()
        snapshot = copy.deepcopy(report)
        BENCH.validate(report)
        assert report == snapshot


class TestRenderSummary:
    def test_summary_names_every_scenario(self):
        text = render_summary(stub_report())
        assert "Serving resilience" in text
        assert "hedge tail" in text
        assert "retry budget" in text
        assert "fair queue" in text
        assert "rolling restart" in text
        assert "0 lost" in text
        assert "2/2" in text
        assert "PASS" in text

    def test_summary_shows_the_bounds(self):
        text = render_summary(stub_report())
        assert f"bound {HEDGE_TAIL_BOUND}" in text
        assert f"{DRR_LIGHT_SHED_BOUND:.0%}" in text

    def test_failing_claim_renders_fail(self):
        report = stub_report()
        report["headline"]["claim"]["pass"] = False
        assert "FAIL" in render_summary(report)


class TestConfig:
    def test_needs_two_frontends(self):
        with pytest.raises(FrontendError, match="frontends"):
            ResilienceBenchConfig(n_frontends=1)

    def test_needs_chaos_seeds(self):
        with pytest.raises(FrontendError, match="chaos_seeds"):
            ResilienceBenchConfig(chaos_seeds=())

    def test_quick_config_shortens_every_burst(self):
        full = ResilienceBenchConfig()
        quick = quick_config()
        assert quick.tail_duration_s < full.tail_duration_s
        assert quick.budget_requests < full.budget_requests
        assert quick.fair_duration_s < full.fair_duration_s
        assert quick.restart_duration_s < full.restart_duration_s
        assert quick.chaos_duration_s < full.chaos_duration_s
        # Same scenario set, same claims: the smoke run samples the
        # full run, it does not change what is asserted.
        assert quick.n_frontends == full.n_frontends
        assert quick.chaos_seeds == full.chaos_seeds


class TestFleetTable:
    def test_every_fleet_run_is_a_named_row(self):
        assert list(FLEET_CELLS) == [
            "unhedged", "hedged", "retry_budget", "rolling_restart",
            *CHAOS_CELLS,
        ]
        assert all(name == cell.name for name, cell in FLEET_CELLS.items())

    def test_impostors_sit_in_the_chaos_cells_that_name_them(self):
        impostors = {
            name: (cell.impostor_at, cell.torn)
            for name, cell in FLEET_CELLS.items()
            if cell.impostor_at is not None
        }
        assert impostors == {
            "stalled_frontend": (1, False), "torn_frames": (0, True),
        }


class Inner:
    def __init__(self):
        self.probe_specs = []
        self.scan_specs = []

    async def probe_many(self, specs):
        self.probe_specs.append(list(specs))
        return ["p"] * len(specs)

    async def scan_many(self, specs):
        self.scan_specs.append(list(specs))
        return ["s"] * len(specs)


class TestFaultInjectors:
    def test_delay_backend_waits_then_passes_through(self):
        inner = Inner()
        delayed = DelayBackend(inner, batch_s=0.5, request_s=0.25)

        async def scenario():
            loop = asyncio.get_running_loop()
            started = loop.time()
            probed = await delayed.probe_many([(1, 1, 2), (2, 1, 2)])
            waited = [loop.time() - started]
            scanned = await delayed.scan_many([(1, 2)])
            waited.append(loop.time() - started - waited[0])
            return probed, scanned, waited

        probed, scanned, waited = vtime.run(scenario())
        assert probed == ["p", "p"]
        assert scanned == ["s"]
        # One batch timer each: batch_s plus request_s per request.
        assert waited == [1.0, 0.75]
        assert inner.probe_specs == [[(1, 1, 2), (2, 1, 2)]]
        assert inner.scan_specs == [[(1, 2)]]

    def test_failing_backend_fails_and_counts(self):
        failing = FailingBackend(Inner())
        with pytest.raises(RuntimeError):
            asyncio.run(failing.probe_many([(1, 1, 2)]))
        with pytest.raises(RuntimeError):
            asyncio.run(failing.scan_many([(1, 2)]))
        assert failing.calls == 2

    def test_stall_server_never_answers(self):
        async def scenario():
            stall = ImpostorFrontend()
            port = await stall.start()
            client = await FrontendClient().connect("127.0.0.1", port)
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(client.ping(), timeout=0.2)
            finally:
                await client.close()
                await stall.close()

        asyncio.run(scenario())

    def test_torn_frame_server_surfaces_transport_error(self):
        async def scenario():
            torn = ImpostorFrontend(torn=True)
            port = await torn.start()
            client = await FrontendClient().connect("127.0.0.1", port)
            try:
                with pytest.raises(TransportError):
                    await client.probe(1, 1, 2)
            finally:
                await client.close()
                await torn.close()

        asyncio.run(scenario())

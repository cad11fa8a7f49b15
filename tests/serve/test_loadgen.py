"""Load-generator tests: schedules, arrival processes, populations."""

import asyncio
import math
import random

import pytest

from repro.errors import (
    BackendError,
    RequestRejected,
    TransportError,
    WorkloadError,
)
from repro.loadgen import (
    LoadConfig,
    LoadReport,
    build_schedule,
    run_load,
)
from repro.loadgen.arrivals import (
    TenantPopulation,
    modulated_arrivals,
    poisson_arrivals,
    usenet_diurnal_profile,
)


class TestArrivals:
    def test_poisson_rate_is_respected(self):
        rng = random.Random(3)
        times = poisson_arrivals(500.0, 10.0, rng)
        assert all(0 <= t < 10.0 for t in times)
        assert times == sorted(times)
        # Mean of a Poisson(5000) count: generous 5-sigma tolerance.
        assert abs(len(times) - 5000) < 5 * math.sqrt(5000)

    def test_poisson_is_deterministic_per_seed(self):
        a = poisson_arrivals(100.0, 2.0, random.Random(7))
        b = poisson_arrivals(100.0, 2.0, random.Random(7))
        assert a == b

    def test_modulated_mean_rate_matches(self):
        rng = random.Random(5)
        profile = (2.0, 0.5, 0.5, 1.0)
        times = modulated_arrivals(400.0, 10.0, profile, rng)
        assert abs(len(times) - 4000) < 5 * math.sqrt(4000)

    def test_modulation_shifts_mass_toward_heavy_segments(self):
        rng = random.Random(5)
        profile = (3.0, 1.0)
        times = modulated_arrivals(400.0, 10.0, profile, rng)
        first_half = sum(1 for t in times if t < 5.0)
        # 3:1 intensity ratio: the first half must carry ~75%.
        assert first_half / len(times) == pytest.approx(0.75, abs=0.05)

    def test_diurnal_profile_is_mean_one(self):
        profile = usenet_diurnal_profile(7)
        assert len(profile) == 7
        assert math.fsum(profile) / 7 == pytest.approx(1.0)
        assert max(profile) / min(profile) > 1.5  # real weekly swing

    def test_rejects_bad_rates(self):
        with pytest.raises(WorkloadError):
            poisson_arrivals(0.0, 1.0, random.Random(1))
        with pytest.raises(WorkloadError):
            modulated_arrivals(10.0, 1.0, (), random.Random(1))


class TestTenantPopulation:
    def test_sizes_sum_to_population(self):
        population = TenantPopulation(n_users=1_000_000, n_tenants=8)
        sizes = population.tenant_sizes()
        assert sum(sizes) == 1_000_000
        assert len(sizes) == 8
        assert all(s >= 1 for s in sizes)

    def test_zipf_skew_orders_tenants(self):
        sizes = TenantPopulation(
            n_users=1_000_000, n_tenants=6
        ).tenant_sizes()
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] > 2 * sizes[-1]

    def test_sample_attributes_by_share(self):
        population = TenantPopulation(n_users=100_000, n_tenants=4)
        rng = random.Random(13)
        counts: dict[str, int] = {}
        for _ in range(20_000):
            tenant, uid = population.sample(rng)
            assert 0 <= uid < 100_000
            counts[tenant] = counts.get(tenant, 0) + 1
        sizes = population.tenant_sizes()
        for i, size in enumerate(sizes):
            share = counts.get(f"tenant-{i}", 0) / 20_000
            assert share == pytest.approx(size / 100_000, abs=0.02)

    def test_user_ids_partition_by_tenant(self):
        population = TenantPopulation(n_users=1_000, n_tenants=3)
        sizes = population.tenant_sizes()
        bounds = [sum(sizes[:i + 1]) for i in range(3)]
        rng = random.Random(2)
        for _ in range(500):
            tenant, uid = population.sample(rng)
            index = int(tenant.split("-")[1])
            lo = 0 if index == 0 else bounds[index - 1]
            assert lo <= uid < bounds[index]

    def test_validation(self):
        with pytest.raises(WorkloadError):
            TenantPopulation(n_users=2, n_tenants=5)
        with pytest.raises(WorkloadError):
            TenantPopulation(n_users=0)


class TestSchedule:
    def test_deterministic_per_seed(self):
        config = LoadConfig(duration_s=1.0, offered_qps=200.0, seed=21)
        assert build_schedule(config) == build_schedule(config)

    def test_different_seed_different_schedule(self):
        a = build_schedule(LoadConfig(duration_s=1.0, seed=1))
        b = build_schedule(LoadConfig(duration_s=1.0, seed=2))
        assert a != b

    def test_requests_are_well_formed(self):
        config = LoadConfig(
            duration_s=1.0, offered_qps=300.0, probe_fraction=0.5,
            domain=50, t_lo=2, t_hi=6, seed=3,
        )
        schedule = build_schedule(config)
        ops = {r.op for r in schedule}
        assert ops == {"probe", "scan"}
        for request in schedule:
            assert 0.0 <= request.at < 1.0
            assert 2 <= request.t1 <= request.t2 <= 6
            if request.op == "probe":
                assert 1 <= request.value <= 50
            else:
                assert request.value is None
            assert request.tenant.startswith("tenant-")

    def test_config_validation(self):
        with pytest.raises(WorkloadError):
            LoadConfig(duration_s=0.0)
        with pytest.raises(WorkloadError):
            LoadConfig(arrivals="bursty")
        with pytest.raises(WorkloadError):
            LoadConfig(probe_fraction=1.5)
        with pytest.raises(WorkloadError):
            LoadConfig(t_lo=5, t_hi=2)


class CountingClient:
    """Client fake: everything completes instantly."""

    def __init__(self):
        self.probes = 0
        self.scans = 0

    async def probe(self, value, t1, t2, *, tenant, deadline_ms):
        self.probes += 1
        return ("probe", value)

    async def scan(self, t1, t2, *, tenant, deadline_ms):
        self.scans += 1
        return ("scan", t1, t2)


class SheddingClient(CountingClient):
    """Client fake rejecting every other request."""

    async def probe(self, value, t1, t2, *, tenant, deadline_ms):
        if self.probes % 2 == 1:
            self.probes += 1
            raise RequestRejected("shed-overload", "full")
        return await super().probe(
            value, t1, t2, tenant=tenant, deadline_ms=deadline_ms
        )


class TestRunLoad:
    def config(self, **overrides):
        defaults = dict(
            duration_s=0.2, offered_qps=300.0, seed=5,
            population=TenantPopulation(n_users=1000, n_tenants=3),
        )
        defaults.update(overrides)
        return LoadConfig(**defaults)

    def test_open_loop_offers_the_whole_schedule(self):
        config = self.config()
        client = CountingClient()
        report = asyncio.run(run_load(client, config))
        schedule = build_schedule(config)
        assert report.offered == len(schedule)
        assert report.completed == report.offered
        assert client.probes + client.scans == report.offered
        assert report.errors == 0
        assert report.latency["count"] == report.completed

    def test_rejections_binned_by_code(self):
        report = asyncio.run(
            run_load(SheddingClient(), self.config(probe_fraction=1.0))
        )
        assert report.rejected.get("shed-overload", 0) > 0
        assert report.shed == report.rejected["shed-overload"]
        assert report.completed + report.shed == report.offered
        assert 0.0 < report.shed_ratio < 1.0

    def test_per_tenant_accounting_is_consistent(self):
        report = asyncio.run(run_load(CountingClient(), self.config()))
        offered = sum(b["offered"] for b in report.per_tenant.values())
        completed = sum(
            b["completed"] for b in report.per_tenant.values()
        )
        assert offered == report.offered
        assert completed == report.completed

    def test_report_serialises(self):
        import json

        report = asyncio.run(run_load(CountingClient(), self.config()))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["offered"] == report.offered
        assert "latency" in payload and "max_lag_s" in payload

    def test_report_properties(self):
        report = LoadReport(
            offered=100, offered_qps=50.0, wall_duration_s=2.0,
            completed=80, rejected={"shed-overload": 20}, errors=0,
            latency={}, per_tenant={}, max_lag_s=0.0,
        )
        assert report.admitted_qps == 40.0
        assert report.shed_ratio == pytest.approx(0.2)
        assert report.reject_ratio == pytest.approx(0.2)


class TornClient(CountingClient):
    """Client fake whose transport tears on every other probe."""

    async def probe(self, value, t1, t2, *, tenant, deadline_ms):
        if self.probes % 2 == 1:
            self.probes += 1
            raise TransportError("torn stream")
        return await super().probe(
            value, t1, t2, tenant=tenant, deadline_ms=deadline_ms
        )


class FlakyReplica:
    """Resilient-client leg: fails its first ``fail_times`` calls."""

    def __init__(self, fail_times=0):
        self.calls = 0
        self.fail_times = fail_times

    async def _respond(self, result):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise BackendError("warming up")
        return result

    async def probe(self, value, t1, t2, *, tenant="default",
                    deadline_ms=None):
        return await self._respond(("probe", value))

    async def scan(self, t1, t2, *, tenant="default", deadline_ms=None):
        return await self._respond(("scan", t1, t2))

    async def close(self):
        return None


class TestResilienceAccounting:
    def config(self, **overrides):
        defaults = dict(
            duration_s=0.2, offered_qps=300.0, seed=5,
            population=TenantPopulation(n_users=1000, n_tenants=3),
        )
        defaults.update(overrides)
        return LoadConfig(**defaults)

    def test_explicit_schedule_overrides_the_config(self):
        # The A/B shape: two runs offered byte-identical traffic even
        # though only one schedule was built.
        config = self.config()
        schedule = build_schedule(config)[:10]
        client = CountingClient()
        report = asyncio.run(run_load(client, config, schedule=schedule))
        assert report.offered == 10
        assert client.probes + client.scans == 10

    def test_transport_errors_split_out_of_errors(self):
        report = asyncio.run(
            run_load(TornClient(), self.config(probe_fraction=1.0))
        )
        assert report.transport_errors > 0
        assert report.transport_errors == report.errors
        assert report.completed + report.errors == report.offered
        assert report.to_dict()["transport_errors"] == report.transport_errors

    def test_rejections_broken_down_per_tenant_per_code(self):
        report = asyncio.run(
            run_load(SheddingClient(), self.config(probe_fraction=1.0))
        )
        by_code: dict[str, int] = {}
        for codes in report.rejected_by_tenant.values():
            for code, count in codes.items():
                by_code[code] = by_code.get(code, 0) + count
        assert by_code == report.rejected
        for tenant, codes in report.rejected_by_tenant.items():
            assert sum(codes.values()) == (
                report.per_tenant[tenant]["rejected"]
            )

    def test_plain_client_reports_unit_amplification(self):
        report = asyncio.run(run_load(CountingClient(), self.config()))
        assert report.amplification == 1.0
        assert report.resilience is None
        assert "resilience" not in report.to_dict()

    def test_resilient_client_amplification_measured(self):
        from repro.serve.resilience import (
            ResilientClient,
            ResilientClientConfig,
            RetryBudgetConfig,
        )

        flaky = FlakyReplica(fail_times=10 ** 9)  # always down
        healthy = FlakyReplica()
        client = ResilientClient(
            [flaky, healthy],
            ResilientClientConfig(
                hedge=False, max_attempts=3, backoff_base_s=0.0,
                backoff_cap_s=0.0,
                budget=RetryBudgetConfig(ratio=1.0, reserve=10.0),
            ),
        )
        report = asyncio.run(run_load(client, self.config()))
        # Every request landing on the dead replica costs a retry, so
        # attempts/offered sits strictly above 1 — and the resilience
        # section carries the breakdown.  (BackendError does not
        # penalty-box the replica, so under concurrent round-robin a
        # request may draw the dead leg on every attempt and error —
        # that is the taxonomy working, not a loss.)
        assert report.completed + report.errors == report.offered
        assert report.completed > 0
        assert report.amplification > 1.0
        assert report.resilience is not None
        assert report.resilience["retries"] > 0
        assert report.resilience["requests"] == report.offered
        assert report.to_dict()["resilience"]["retries"] == (
            report.resilience["retries"]
        )

    def test_amplification_is_a_per_burst_delta(self):
        from repro.serve.resilience import (
            ResilientClient,
            ResilientClientConfig,
        )

        client = ResilientClient(
            [FlakyReplica()], ResilientClientConfig(hedge=False)
        )
        first = asyncio.run(run_load(client, self.config()))
        second = asyncio.run(run_load(client, self.config(seed=6)))
        # A healthy second burst reports 1.0 even though the client
        # object has history: the stats are measured as deltas.
        assert first.amplification == 1.0
        assert second.amplification == 1.0
        assert second.resilience["requests"] == second.offered

"""The serving-resilience bench: hedging, budgets, fairness, restarts.

``repro bench-resilience`` stands up real multi-frontend fleets over a
demo cluster and puts numbers behind the four resilience claims:

* **Hedging cuts the tail** — with one frontend serving every request
  ``slow_extra_ms`` late (an injected straggler), the hedged client's
  p99 over an identical open-loop schedule lands well below the
  unhedged client's (``hedge_tail_ratio`` headline, gated < 1).
* **The retry budget bounds amplification** — with the backend failing
  100% of requests, total backend attempts stay within the token
  bucket's arithmetic bound ``offered x (1 + ratio) + reserve``: a
  dead backend gets a bounded goodbye, not a retry storm.
* **DRR bounds heavy-tenant damage** — with one tenant offering far
  more than capacity and seven light tenants under it, per-tenant DRR
  with fair shedding keeps the light tenants' shed ratio near zero
  while the FIFO queue (offered the byte-identical schedule) spreads
  the heavy tenant's overload onto everyone.
* **Rolling restarts lose nothing** — a three-frontend fleet is rolled
  one frontend at a time through the drain gate while a resilient
  client drives open-loop traffic; ``rolling_restart_lost_requests``
  (offered − completed) is gated at **exactly zero** and committed to
  ``BENCH_baseline.json``.

A seeded **chaos matrix** rides along: slow frontend, stalled frontend
(accepts, never answers), mid-response kill + revive, torn frames (a
server that closes mid-frame), and a deadline storm (everything expires;
the taxonomy must *not* retry it).  Each cell asserts its own pass
condition; ``repro bench-resilience`` exits 1 unless every claim and
every cell holds.

All latencies are wall-clock: the artifact is ``machine_dependent`` and
never byte-compared — CI asserts schema and claims, and ``bench-check``
gates only the machine-independent headlines (a lost-request count and
a ratio of two latencies measured in the same run).
"""

from __future__ import annotations

import asyncio
import random
import struct
import time
from dataclasses import dataclass, replace
from typing import Any

from ..errors import FrontendError
from ..loadgen import LoadConfig, ScheduledRequest, TenantPopulation, run_load
from ..serve.admission import (
    AdmissionConfig,
    AdmissionController,
    CoordinatorBackend,
)
from ..serve.client import FrontendClient, InProcessClient
from ..serve.demo import DemoClusterConfig, build_demo_cluster
from ..serve.fleet import FrontendFleet, RollingRestartOrchestrator
from ..serve.resilience import (
    ResilientClient,
    ResilientClientConfig,
    RetryBudgetConfig,
)
from .frontend import ServiceDelayBackend
from .harness import SCHEMA_VERSION, Bench, Schema, claim_passes

#: Hedging must cut the injected-straggler p99 at least this much.
HEDGE_TAIL_BOUND = 0.7

#: DRR must keep the light tenants' shed ratio under this while the
#: heavy tenant floods.
DRR_LIGHT_SHED_BOUND = 0.10


@dataclass(frozen=True)
class ResilienceBenchConfig:
    """Parameters of the resilience scenarios and the chaos matrix."""

    cluster: DemoClusterConfig = DemoClusterConfig()
    n_frontends: int = 3
    #: Extra wall milliseconds the injected-straggler frontend adds to
    #: every batch it dispatches.
    slow_extra_ms: float = 80.0
    tail_qps: float = 150.0
    tail_duration_s: float = 1.2
    #: Requests offered to the 100%-failing backend.
    budget_requests: int = 200
    budget_ratio: float = 0.2
    budget_reserve: float = 5.0
    #: Fair-queueing scenario: heavy tenant offers
    #: ``fair_heavy_multiplier`` x capacity on its own; the light
    #: tenants together offer ``fair_light_multiplier`` x capacity.
    fair_heavy_multiplier: float = 1.5
    fair_light_multiplier: float = 0.4
    n_light_tenants: int = 7
    fair_duration_s: float = 1.0
    fair_service_us: float = 2_000.0
    fair_calibrate_qps: float = 3_000.0
    fair_calibrate_s: float = 0.4
    restart_qps: float = 140.0
    restart_duration_s: float = 2.4
    drain_timeout_s: float = 5.0
    settle_s: float = 0.08
    chaos_qps: float = 120.0
    chaos_duration_s: float = 0.9
    chaos_seeds: tuple[int, ...] = (7,)
    seed: int = 7
    quick: bool = False

    def __post_init__(self) -> None:
        if self.n_frontends < 2:
            raise FrontendError(
                "resilience scenarios need >= 2 frontends, got "
                f"{self.n_frontends}"
            )
        if not self.chaos_seeds:
            raise FrontendError("chaos_seeds must not be empty")
        if self.slow_extra_ms <= 0:
            raise FrontendError(
                f"slow_extra_ms must be > 0, got {self.slow_extra_ms}"
            )


def quick_config(
    base: ResilienceBenchConfig | None = None,
) -> ResilienceBenchConfig:
    """Return the CI-sized run: same scenarios, shorter bursts."""
    base = base or ResilienceBenchConfig()
    return replace(
        base,
        tail_qps=120.0,
        tail_duration_s=0.8,
        budget_requests=120,
        fair_duration_s=0.7,
        fair_calibrate_s=0.3,
        restart_qps=120.0,
        restart_duration_s=1.8,
        settle_s=0.05,
        chaos_qps=100.0,
        chaos_duration_s=0.6,
        quick=True,
    )


# ----------------------------------------------------------------------
# Fault-injecting backends and fake servers
# ----------------------------------------------------------------------


class ExtraDelayBackend:
    """Add fixed wall delay per batch — the injected straggler.

    The sleep runs in the worker thread before the shared coordinator
    lock, mirroring :class:`~repro.bench.frontend.ServiceDelayBackend`.
    """

    def __init__(self, inner: Any, extra_ms: float) -> None:
        self.inner = inner
        self.extra_s = extra_ms / 1e3

    def probe_many(self, specs: list) -> list:
        time.sleep(self.extra_s)
        return self.inner.probe_many(specs)

    def scan_many(self, specs: list) -> list:
        time.sleep(self.extra_s)
        return self.inner.scan_many(specs)


class FailingBackend:
    """Fail every request — the 100%-failure retry-budget scenario."""

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.calls = 0

    def probe_many(self, specs: list) -> list:
        self.calls += 1
        raise RuntimeError("injected backend failure")

    def scan_many(self, specs: list) -> list:
        self.calls += 1
        raise RuntimeError("injected backend failure")


class StallServer:
    """A fake frontend that accepts and reads but never answers.

    The nastiest failure mode for a client: no error, no EOF, just
    silence.  Only a client-side deadline or a hedge gets past it.
    """

    def __init__(self) -> None:
        self._server: asyncio.base_events.Server | None = None

    async def start(self, host: str = "127.0.0.1") -> int:
        self._server = await asyncio.start_server(self._handle, host, 0)
        return self._server.sockets[0].getsockname()[1]

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while await reader.read(65536):
                pass  # consume and say nothing
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


class TornFrameServer:
    """A fake frontend that answers with half a frame, then hangs up.

    Exercises the client's torn-stream classification: the length
    prefix promises more bytes than ever arrive, so the reader's
    ``IncompleteReadError`` surfaces as a retryable ``TransportError``.
    """

    def __init__(self) -> None:
        self._server: asyncio.base_events.Server | None = None

    async def start(self, host: str = "127.0.0.1") -> int:
        self._server = await asyncio.start_server(self._handle, host, 0)
        return self._server.sockets[0].getsockname()[1]

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            # Wait for one request, promise a 1024-byte frame, deliver
            # half of it, vanish.
            if await reader.read(65536):
                writer.write(struct.pack(">I", 1024) + b"{" * 512)
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------


def _load_config(
    config: ResilienceBenchConfig,
    *,
    qps: float,
    duration_s: float,
    seed: int,
    deadline_ms: float | None = None,
    n_tenants: int = 4,
) -> LoadConfig:
    cluster = config.cluster
    population = TenantPopulation(n_users=100_000, n_tenants=n_tenants)
    return LoadConfig(
        duration_s=duration_s,
        offered_qps=qps,
        arrivals="poisson",
        population=population,
        probe_fraction=0.9,
        domain=cluster.domain,
        t_lo=cluster.oldest_day,
        t_hi=cluster.last_day,
        deadline_ms=deadline_ms,
        seed=seed,
    )


def _report_row(report: Any) -> dict[str, Any]:
    return {
        "offered": report.offered,
        "completed": report.completed,
        "rejected": dict(sorted(report.rejected.items())),
        "errors": report.errors,
        "transport_errors": report.transport_errors,
        "amplification": report.amplification,
        "resilience": report.resilience,
        "max_lag_s": report.max_lag_s,
        "p50_s": report.latency["p50"],
        "p95_s": report.latency["p95"],
        "p99_s": report.latency["p99"],
    }


async def _drive_fleet(
    fleet: FrontendFleet,
    client_config: ResilientClientConfig,
    load: LoadConfig,
) -> Any:
    client = await fleet.resilient_client(client_config)
    try:
        return await run_load(client, load), client
    finally:
        await client.close()


# ----------------------------------------------------------------------
# Scenario: hedging cuts the injected-straggler tail
# ----------------------------------------------------------------------


async def _hedge_tail_scenario(
    config: ResilienceBenchConfig,
) -> dict[str, Any]:
    sim = build_demo_cluster(config.cluster)

    def wrap(idx: int, backend: Any) -> Any:
        if idx == 0:
            return ExtraDelayBackend(backend, config.slow_extra_ms)
        return backend

    rows: dict[str, dict[str, Any]] = {}
    for mode, hedge in (("unhedged", False), ("hedged", True)):
        fleet = FrontendFleet(
            sim.coordinator,
            AdmissionConfig(max_concurrency=2, batch_max=8),
            n_frontends=config.n_frontends,
            wrap_backend=wrap,
        )
        await fleet.start()
        try:
            client_config = ResilientClientConfig(
                max_attempts=1,
                hedge=hedge,
                hedge_initial_s=0.008,
                hedge_min_s=0.002,
                budget=RetryBudgetConfig(ratio=0.6, reserve=50.0, cap=500.0),
                seed=config.seed,
            )
            # Identical seed => byte-identical schedule for both modes.
            load = _load_config(
                config, qps=config.tail_qps,
                duration_s=config.tail_duration_s, seed=config.seed + 11,
            )
            (report, client) = await _drive_fleet(fleet, client_config, load)
            row = _report_row(report)
            row["hedge_delay_s"] = client.hedge_delay_s()
            rows[mode] = row
        finally:
            await fleet.close()

    unhedged_p99 = rows["unhedged"]["p99_s"]
    hedged_p99 = rows["hedged"]["p99_s"]
    ratio = hedged_p99 / unhedged_p99 if unhedged_p99 > 0 else None
    return {
        "slow_extra_ms": config.slow_extra_ms,
        "unhedged": rows["unhedged"],
        "hedged": rows["hedged"],
        "hedge_tail_ratio": ratio,
        "pass": ratio is not None and ratio <= HEDGE_TAIL_BOUND,
    }


# ----------------------------------------------------------------------
# Scenario: the retry budget bounds amplification at 100% failure
# ----------------------------------------------------------------------


async def _retry_budget_scenario(
    config: ResilienceBenchConfig,
) -> dict[str, Any]:
    sim = build_demo_cluster(config.cluster)
    fleet = FrontendFleet(
        sim.coordinator,
        AdmissionConfig(max_concurrency=2),
        n_frontends=2,
        wrap_backend=lambda idx, backend: FailingBackend(backend),
    )
    await fleet.start()
    try:
        budget = RetryBudgetConfig(
            ratio=config.budget_ratio,
            reserve=config.budget_reserve,
            cap=max(config.budget_reserve, config.budget_requests),
        )
        client_config = ResilientClientConfig(
            max_attempts=4, hedge=False, backoff_base_s=0.0005,
            budget=budget, seed=config.seed,
        )
        n = config.budget_requests
        load = _load_config(
            config, qps=max(200.0, n / 0.8), duration_s=n / max(200.0, n / 0.8),
            seed=config.seed + 23,
        )
        report, _client = await _drive_fleet(fleet, client_config, load)
    finally:
        await fleet.close()
    offered = report.offered
    retries = (report.resilience or {}).get("retries", 0.0)
    # The token-bucket arithmetic: every retry withdrew a whole token,
    # and only ``ratio`` per offered request plus the initial reserve
    # was ever deposited.
    bound_retries = config.budget_ratio * offered + config.budget_reserve
    amp_bound = 1.0 + bound_retries / offered if offered else 1.0
    return {
        "offered": offered,
        "row": _report_row(report),
        "retries": retries,
        "retry_bound": bound_retries,
        "amplification": report.amplification,
        "amplification_bound": amp_bound,
        "completed": report.completed,
        "pass": (
            report.completed == 0
            and retries <= bound_retries + 1e-9
            and report.amplification <= amp_bound + 1e-9
        ),
    }


# ----------------------------------------------------------------------
# Scenario: DRR bounds heavy-tenant damage (vs FIFO, identical traffic)
# ----------------------------------------------------------------------


def _fair_schedule(
    config: ResilienceBenchConfig, capacity_qps: float, seed: int
) -> list[ScheduledRequest]:
    """One heavy tenant flooding past capacity over light tenants."""
    rng = random.Random(seed)
    cluster = config.cluster
    duration = config.fair_duration_s
    heavy_qps = capacity_qps * config.fair_heavy_multiplier
    light_qps = (
        capacity_qps * config.fair_light_multiplier / config.n_light_tenants
    )
    arrivals: list[tuple[float, str]] = []
    for tenant, qps in [("hog", heavy_qps)] + [
        (f"light{i}", light_qps) for i in range(config.n_light_tenants)
    ]:
        t = 0.0
        while True:
            t += rng.expovariate(qps)
            if t >= duration:
                break
            arrivals.append((t, tenant))
    arrivals.sort()
    schedule = []
    for at, tenant in arrivals:
        t1 = rng.randint(cluster.oldest_day, cluster.last_day)
        t2 = rng.randint(t1, cluster.last_day)
        schedule.append(
            ScheduledRequest(
                at, tenant, rng.randrange(100_000), "probe",
                rng.randint(1, cluster.domain), t1, t2,
            )
        )
    return schedule


def _tenant_class_stats(report: Any) -> dict[str, dict[str, float]]:
    out = {
        "hog": {"offered": 0.0, "completed": 0.0, "rejected": 0.0},
        "light": {"offered": 0.0, "completed": 0.0, "rejected": 0.0},
    }
    for tenant, bins in report.per_tenant.items():
        cls = "hog" if tenant == "hog" else "light"
        for key in ("offered", "completed", "rejected"):
            out[cls][key] += bins[key]
    for cls, bins in out.items():
        bins["shed_ratio"] = (
            bins["rejected"] / bins["offered"] if bins["offered"] else 0.0
        )
    return out


async def _fair_queue_scenario(
    config: ResilienceBenchConfig,
) -> dict[str, Any]:
    sim = build_demo_cluster(config.cluster)
    backend = ServiceDelayBackend(
        CoordinatorBackend(sim.coordinator), config.fair_service_us
    )

    async def run_discipline(
        discipline: str, schedule: list[ScheduledRequest] | None,
        load: LoadConfig,
    ) -> Any:
        controller = AdmissionController(
            backend,
            AdmissionConfig(
                max_queue_depth=16,
                overload_policy="shed",
                max_concurrency=2,
                batch_max=4,
                executor_workers=2,
                queue_discipline=discipline,
            ),
        )
        controller.start()
        try:
            return await run_load(
                InProcessClient(controller), load, schedule=schedule
            )
        finally:
            await controller.drain()

    # Calibrate capacity with a saturating FIFO burst, exactly like the
    # frontend bench does.
    calibrate = _load_config(
        config, qps=config.fair_calibrate_qps,
        duration_s=config.fair_calibrate_s, seed=config.seed + 31,
    )
    calibration = await run_discipline("fifo", None, calibrate)
    capacity = calibration.completed / max(
        calibration.wall_duration_s, 1e-9
    )
    if capacity <= 0:
        raise FrontendError("fair-queue calibration admitted nothing")

    schedule = _fair_schedule(config, capacity, config.seed + 37)
    load = _load_config(
        config, qps=max(1.0, len(schedule) / config.fair_duration_s),
        duration_s=config.fair_duration_s, seed=config.seed + 37,
    )
    rows: dict[str, Any] = {"capacity_qps": capacity}
    classes: dict[str, dict[str, dict[str, float]]] = {}
    for discipline in ("fifo", "drr"):
        report = await run_discipline(discipline, schedule, load)
        rows[discipline] = _report_row(report)
        classes[discipline] = _tenant_class_stats(report)
        rows[discipline]["tenant_classes"] = classes[discipline]
    fifo_light = classes["fifo"]["light"]["shed_ratio"]
    drr_light = classes["drr"]["light"]["shed_ratio"]
    overloaded = (
        classes["fifo"]["hog"]["shed_ratio"] > 0.0
        or classes["drr"]["hog"]["shed_ratio"] > 0.0
    )
    return {
        **rows,
        "fifo_light_shed_ratio": fifo_light,
        "drr_light_shed_ratio": drr_light,
        "pass": (
            overloaded
            and drr_light <= DRR_LIGHT_SHED_BOUND
            and drr_light <= fifo_light
        ),
    }


# ----------------------------------------------------------------------
# Scenario: zero-loss rolling restart
# ----------------------------------------------------------------------


def _restart_client_config(config: ResilienceBenchConfig) -> ResilientClientConfig:
    # Roughly 1/n of traffic hits the draining frontend per phase, so
    # the budget must be generous; hedging stays on (it also rescues
    # requests stuck behind a drain).
    return ResilientClientConfig(
        max_attempts=5,
        hedge=True,
        hedge_initial_s=0.02,
        backoff_base_s=0.002,
        backoff_cap_s=0.05,
        budget=RetryBudgetConfig(ratio=0.6, reserve=60.0, cap=600.0),
        seed=config.seed,
    )


async def _rolling_restart_scenario(
    config: ResilienceBenchConfig,
) -> dict[str, Any]:
    sim = build_demo_cluster(config.cluster)
    fleet = FrontendFleet(
        sim.coordinator,
        AdmissionConfig(max_concurrency=2, batch_max=8),
        n_frontends=config.n_frontends,
    )
    await fleet.start()
    client = await fleet.resilient_client(_restart_client_config(config))
    try:
        load = _load_config(
            config, qps=config.restart_qps,
            duration_s=config.restart_duration_s, seed=config.seed + 41,
            deadline_ms=None,
        )
        orchestrator = RollingRestartOrchestrator(
            fleet,
            drain_timeout_s=config.drain_timeout_s,
            settle_s=config.settle_s,
        )

        async def restart_later() -> Any:
            # Let traffic establish, then roll the whole fleet while
            # the burst is still running.
            await asyncio.sleep(min(0.3, config.restart_duration_s / 6))
            return await orchestrator.rolling_restart()

        report, restart = await asyncio.gather(
            run_load(client, load), restart_later()
        )
    finally:
        await client.close()
        await fleet.close()
    lost = report.offered - report.completed
    return {
        "row": _report_row(report),
        "restart": restart.to_dict(),
        "n_frontends": config.n_frontends,
        "offered": report.offered,
        "completed": report.completed,
        "lost_requests": lost,
        "pass": lost == 0 and len(restart.restarted) == config.n_frontends,
    }


# ----------------------------------------------------------------------
# The chaos matrix
# ----------------------------------------------------------------------


async def _chaos_slow_frontend(
    config: ResilienceBenchConfig, seed: int
) -> dict[str, Any]:
    sim = build_demo_cluster(config.cluster)
    fleet = FrontendFleet(
        sim.coordinator,
        AdmissionConfig(max_concurrency=2, batch_max=8),
        n_frontends=config.n_frontends,
        wrap_backend=lambda idx, b: (
            ExtraDelayBackend(b, config.slow_extra_ms) if idx == 0 else b
        ),
    )
    await fleet.start()
    try:
        load = _load_config(
            config, qps=config.chaos_qps,
            duration_s=config.chaos_duration_s, seed=seed,
        )
        report, _ = await _drive_fleet(
            fleet,
            ResilientClientConfig(
                max_attempts=2, hedge=True, hedge_initial_s=0.008,
                budget=RetryBudgetConfig(ratio=0.6, reserve=50.0, cap=500.0),
                seed=seed,
            ),
            load,
        )
    finally:
        await fleet.close()
    lost = report.offered - report.completed
    return {
        "cell": "slow_frontend", "seed": seed,
        "row": _report_row(report), "lost": lost, "pass": lost == 0,
    }


async def _chaos_stalled_frontend(
    config: ResilienceBenchConfig, seed: int
) -> dict[str, Any]:
    sim = build_demo_cluster(config.cluster)
    fleet = FrontendFleet(
        sim.coordinator,
        AdmissionConfig(max_concurrency=2, batch_max=8),
        n_frontends=2,
    )
    await fleet.start()
    stall = StallServer()
    stall_port = await stall.start()
    clients = [
        await fleet.client(0),
        await FrontendClient().connect("127.0.0.1", stall_port),
        await fleet.client(1),
    ]
    client = ResilientClient(
        clients,
        ResilientClientConfig(
            max_attempts=3, hedge=True, hedge_initial_s=0.01,
            budget=RetryBudgetConfig(ratio=0.8, reserve=80.0, cap=800.0),
            seed=seed,
        ),
    )
    try:
        load = _load_config(
            config, qps=config.chaos_qps,
            duration_s=config.chaos_duration_s, seed=seed,
            deadline_ms=1_500.0,
        )
        report = await run_load(client, load)
    finally:
        await client.close()
        await stall.close()
        await fleet.close()
    lost = report.offered - report.completed
    return {
        "cell": "stalled_frontend", "seed": seed,
        "row": _report_row(report), "lost": lost, "pass": lost == 0,
    }


async def _chaos_kill_mid_response(
    config: ResilienceBenchConfig, seed: int
) -> dict[str, Any]:
    sim = build_demo_cluster(config.cluster)
    fleet = FrontendFleet(
        sim.coordinator,
        AdmissionConfig(max_concurrency=2, batch_max=8),
        n_frontends=config.n_frontends,
    )
    await fleet.start()
    client = await fleet.resilient_client(_restart_client_config(config))
    try:
        load = _load_config(
            config, qps=config.chaos_qps,
            duration_s=config.chaos_duration_s, seed=seed,
        )

        async def chaos() -> None:
            # Hard-kill one frontend mid-burst (in-flight responses
            # tear), leave it dark for a while, then revive it.
            await asyncio.sleep(config.chaos_duration_s / 4)
            await fleet.kill(1)
            await asyncio.sleep(config.chaos_duration_s / 4)
            await fleet.revive(1)

        report, _ = await asyncio.gather(run_load(client, load), chaos())
    finally:
        await client.close()
        await fleet.close()
    lost = report.offered - report.completed
    return {
        "cell": "kill_mid_response", "seed": seed,
        "row": _report_row(report), "lost": lost, "pass": lost == 0,
    }


async def _chaos_torn_frames(
    config: ResilienceBenchConfig, seed: int
) -> dict[str, Any]:
    sim = build_demo_cluster(config.cluster)
    fleet = FrontendFleet(
        sim.coordinator,
        AdmissionConfig(max_concurrency=2, batch_max=8),
        n_frontends=2,
    )
    await fleet.start()
    torn = TornFrameServer()
    torn_port = await torn.start()
    clients = [
        await FrontendClient().connect("127.0.0.1", torn_port),
        await fleet.client(0),
        await fleet.client(1),
    ]
    client = ResilientClient(
        clients,
        ResilientClientConfig(
            max_attempts=4, hedge=False, backoff_base_s=0.0005,
            budget=RetryBudgetConfig(ratio=0.8, reserve=80.0, cap=800.0),
            seed=seed,
        ),
    )
    try:
        load = _load_config(
            config, qps=config.chaos_qps,
            duration_s=config.chaos_duration_s, seed=seed,
        )
        report = await run_load(client, load)
    finally:
        await client.close()
        await torn.close()
        await fleet.close()
    lost = report.offered - report.completed
    retried = (report.resilience or {}).get("retries", 0.0)
    return {
        "cell": "torn_frames", "seed": seed,
        "row": _report_row(report), "lost": lost,
        "pass": lost == 0 and retried > 0,
    }


async def _chaos_deadline_storm(
    config: ResilienceBenchConfig, seed: int
) -> dict[str, Any]:
    sim = build_demo_cluster(config.cluster)
    # Slow every backend so most deadlines expire server-side.
    fleet = FrontendFleet(
        sim.coordinator,
        AdmissionConfig(max_concurrency=2, batch_max=8),
        n_frontends=2,
        wrap_backend=lambda idx, b: ExtraDelayBackend(b, 20.0),
    )
    await fleet.start()
    try:
        load = _load_config(
            config, qps=config.chaos_qps,
            duration_s=config.chaos_duration_s, seed=seed,
            deadline_ms=5.0,
        )
        report, _ = await _drive_fleet(
            fleet,
            ResilientClientConfig(
                max_attempts=4, hedge=False,
                budget=RetryBudgetConfig(ratio=0.8, reserve=80.0, cap=800.0),
                seed=seed,
            ),
            load,
        )
    finally:
        await fleet.close()
    res = report.resilience or {}
    expired = report.rejected.get("deadline-expired", 0)
    accounted = report.completed + sum(report.rejected.values())
    return {
        "cell": "deadline_storm", "seed": seed,
        "row": _report_row(report),
        "expired": expired,
        # Deadline expiry is fatal by taxonomy: the storm must trigger
        # ZERO retries no matter how many requests die, and every
        # request must be accounted for (answered or rejected, never
        # lost in the client).
        "pass": (
            expired > 0
            and res.get("retries", 0.0) == 0
            and report.errors == 0
            and accounted == report.offered
        ),
    }


_CHAOS_CELLS = (
    _chaos_slow_frontend,
    _chaos_stalled_frontend,
    _chaos_kill_mid_response,
    _chaos_torn_frames,
    _chaos_deadline_storm,
)


async def _run_chaos(config: ResilienceBenchConfig) -> list[dict[str, Any]]:
    cells = []
    for seed in config.chaos_seeds:
        for cell in _CHAOS_CELLS:
            cells.append(await cell(config, seed))
    return cells


# ----------------------------------------------------------------------
# The bench
# ----------------------------------------------------------------------


async def _run_scenarios(config: ResilienceBenchConfig) -> dict[str, Any]:
    return {
        "hedge_tail": await _hedge_tail_scenario(config),
        "retry_budget": await _retry_budget_scenario(config),
        "fair_queue": await _fair_queue_scenario(config),
        "rolling_restart": await _rolling_restart_scenario(config),
    }


def run_resilience_bench(
    config: ResilienceBenchConfig | None = None,
) -> dict[str, Any]:
    """Run every scenario and the chaos matrix; return the report."""
    config = config or ResilienceBenchConfig()

    async def main() -> tuple[dict[str, Any], list[dict[str, Any]]]:
        return await _run_scenarios(config), await _run_chaos(config)

    scenarios, chaos = asyncio.run(main())
    cells_passed = sum(1 for cell in chaos if cell["pass"])
    claim = {
        "hedge_cuts_tail": scenarios["hedge_tail"]["pass"],
        "retry_budget_bounds_amplification": scenarios["retry_budget"]["pass"],
        "drr_bounds_heavy_tenant_damage": scenarios["fair_queue"]["pass"],
        "zero_loss_rolling_restart": scenarios["rolling_restart"]["pass"],
        "chaos_all_pass": cells_passed == len(chaos),
    }
    claim["pass"] = all(claim.values())
    headline = {
        "rolling_restart_lost_requests": float(
            scenarios["rolling_restart"]["lost_requests"]
        ),
        "hedge_tail_ratio": scenarios["hedge_tail"]["hedge_tail_ratio"],
        "hedged_p99_s": scenarios["hedge_tail"]["hedged"]["p99_s"],
        "unhedged_p99_s": scenarios["hedge_tail"]["unhedged"]["p99_s"],
        "retry_amplification": scenarios["retry_budget"]["amplification"],
        "retry_amplification_bound": scenarios["retry_budget"][
            "amplification_bound"
        ],
        "drr_light_shed_ratio": scenarios["fair_queue"][
            "drr_light_shed_ratio"
        ],
        "fifo_light_shed_ratio": scenarios["fair_queue"][
            "fifo_light_shed_ratio"
        ],
        "chaos_cells_passed": cells_passed,
        "chaos_cells_total": len(chaos),
        "claim": claim,
    }
    report = {
        "bench": "resilience",
        "schema_version": SCHEMA_VERSION,
        # Wall-clock numbers: never byte-compare across machines.
        "machine_dependent": True,
        "workload": {
            "window": config.cluster.window,
            "n_indexes": config.cluster.n_indexes,
            "scheme": config.cluster.scheme,
            "n_shards": config.cluster.n_shards,
            "n_frontends": config.n_frontends,
            "slow_extra_ms": config.slow_extra_ms,
            "budget_ratio": config.budget_ratio,
            "budget_reserve": config.budget_reserve,
            "fair_heavy_multiplier": config.fair_heavy_multiplier,
            "n_light_tenants": config.n_light_tenants,
            "chaos_seeds": list(config.chaos_seeds),
            "seed": config.seed,
            "quick": config.quick,
        },
        "scenarios": scenarios,
        "chaos": chaos,
        "headline": headline,
    }
    return BENCH.validate(report)


def _check(report: dict[str, Any]) -> None:
    for name in ("hedge_tail", "retry_budget", "fair_queue", "rolling_restart"):
        if name not in report["scenarios"]:
            raise ValueError(f"scenarios missing {name!r}")
        if "pass" not in report["scenarios"][name]:
            raise ValueError(f"scenario {name!r} missing its pass verdict")
    if report["headline"]["rolling_restart_lost_requests"] < 0:
        raise ValueError("negative rolling_restart_lost_requests")


def render_summary(report: dict[str, Any]) -> str:
    """Return a human-readable summary for the CLI."""
    h = report["headline"]
    s = report["scenarios"]
    c = h["claim"]
    lines = [
        f"Serving resilience: {report['workload']['n_frontends']} frontends, "
        f"{report['workload']['scheme']} W={report['workload']['window']} "
        f"k={report['workload']['n_shards']}, "
        f"seeds {report['workload']['chaos_seeds']}",
        "",
        f"  hedge tail: straggler +{s['hedge_tail']['slow_extra_ms']:.0f} ms; "
        f"p99 {h['unhedged_p99_s'] * 1e3:.1f} ms unhedged -> "
        f"{h['hedged_p99_s'] * 1e3:.1f} ms hedged "
        f"(ratio {h['hedge_tail_ratio']:.2f}, bound {HEDGE_TAIL_BOUND})",
        f"  retry budget: 100% backend failure, amplification "
        f"{h['retry_amplification']:.3f} <= "
        f"{h['retry_amplification_bound']:.3f}",
        f"  fair queue: light-tenant shed {h['fifo_light_shed_ratio']:.1%} "
        f"(fifo) -> {h['drr_light_shed_ratio']:.1%} (drr, bound "
        f"{DRR_LIGHT_SHED_BOUND:.0%})",
        f"  rolling restart: {len(s['rolling_restart']['restart']['restarted'])}"
        f" frontends rolled, {s['rolling_restart']['offered']} offered, "
        f"{s['rolling_restart']['completed']} completed, "
        f"{s['rolling_restart']['lost_requests']} lost",
        f"  chaos: {h['chaos_cells_passed']}/{h['chaos_cells_total']} "
        f"cells passed",
        "",
        f"  claims: hedge_cuts_tail={c['hedge_cuts_tail']} "
        f"retry_budget={c['retry_budget_bounds_amplification']} "
        f"drr_fairness={c['drr_bounds_heavy_tenant_damage']} "
        f"zero_loss_restart={c['zero_loss_rolling_restart']} "
        f"chaos={c['chaos_all_pass']} "
        f"-> {'PASS' if c['pass'] else 'FAIL'}",
    ]
    return "\n".join(lines)


BENCH = Bench(
    name="resilience",
    config=ResilienceBenchConfig,
    quick_config=quick_config,
    run=run_resilience_bench,
    render_summary=render_summary,
    schema=Schema(
        keys=("workload", "scenarios", "chaos", "headline"),
        rows="chaos",
        row_keys=("cell", "seed", "pass"),
        headline=(
            "rolling_restart_lost_requests",
            "hedge_tail_ratio",
            "retry_amplification",
            "retry_amplification_bound",
            "drr_light_shed_ratio",
            "fifo_light_shed_ratio",
            "chaos_cells_passed",
            "chaos_cells_total",
            "claim",
        ),
        machine_dependent=True,
    ),
    claim=claim_passes,
    check=_check,
)


__all__ = [
    "BENCH",
    "DRR_LIGHT_SHED_BOUND",
    "HEDGE_TAIL_BOUND",
    "ExtraDelayBackend",
    "FailingBackend",
    "ResilienceBenchConfig",
    "SCHEMA_VERSION",
    "StallServer",
    "TornFrameServer",
    "quick_config",
    "render_summary",
    "run_resilience_bench",
]

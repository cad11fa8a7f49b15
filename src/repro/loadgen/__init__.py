"""Open-loop load generator for the serving frontend.

Builds a deterministic *schedule* first — arrival times from a Poisson
or usenet-diurnal process, each arrival bound to a tenant/user from a
million-user population and to a concrete probe or scan — then replays
it against a client in open loop: requests are issued when the clock
says so, never when the previous response lands.  Responses settle
concurrently; the generator records each request's fate (completed,
shed, rate-limited, deadline-expired) and wall-clock latency.

The report separates **offered** load (what the schedule demanded) from
**admitted/completed** load (what the server absorbed) — the gap *is*
the overload behaviour under test.  ``max_lag_s`` reports how far the
issue loop itself fell behind the schedule, so a run where the
generator (not the server) was the bottleneck is visible instead of
silently under-offering.

Works against either client in :mod:`repro.serve.client`; schedules are
reproducible from the seed, so two policies can be offered *exactly*
the same traffic.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any

from ..errors import (
    FrontendError,
    RequestRejected,
    TransportError,
    WorkloadError,
)
from ..obs import Histogram
from ..serve.resilience import ResilienceStats
from .arrivals import (
    TenantPopulation,
    modulated_arrivals,
    poisson_arrivals,
    usenet_diurnal_profile,
)

#: Arrival shapes :class:`LoadConfig` accepts.
ARRIVAL_KINDS = ("poisson", "diurnal")


@dataclass(frozen=True)
class LoadConfig:
    """One open-loop burst's shape.

    ``offered_qps`` is the schedule's mean rate; the diurnal profile, a
    week of the usenet trace compressed onto the run, redistributes it
    without changing the mean.
    ``t_lo``/``t_hi`` bound the day axis queries ask about (take them
    from the served cluster's window).
    """

    duration_s: float = 2.0
    offered_qps: float = 400.0
    arrivals: str = "poisson"
    population: TenantPopulation = field(default_factory=TenantPopulation)
    probe_fraction: float = 0.9
    domain: int = 400
    t_lo: int = 1
    t_hi: int = 5
    deadline_ms: float | None = None
    seed: int = 7

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise WorkloadError(
                f"duration_s must be > 0, got {self.duration_s}"
            )
        if self.offered_qps <= 0:
            raise WorkloadError(
                f"offered_qps must be > 0, got {self.offered_qps}"
            )
        if self.arrivals not in ARRIVAL_KINDS:
            raise WorkloadError(
                f"unknown arrival kind {self.arrivals!r}; "
                f"known: {', '.join(ARRIVAL_KINDS)}"
            )
        if not 0.0 <= self.probe_fraction <= 1.0:
            raise WorkloadError(
                f"probe_fraction must be in [0, 1], "
                f"got {self.probe_fraction}"
            )
        if self.domain < 1:
            raise WorkloadError(f"domain must be >= 1, got {self.domain}")
        if not self.t_lo <= self.t_hi:
            raise WorkloadError(
                f"t_lo {self.t_lo} must be <= t_hi {self.t_hi}"
            )


@dataclass(frozen=True)
class ScheduledRequest:
    """One arrival: when, who, and what to ask."""

    at: float
    tenant: str
    user_id: int
    op: str  # "probe" | "scan"
    value: int | None
    t1: int
    t2: int


def build_schedule(config: LoadConfig) -> list[ScheduledRequest]:
    """Return the burst's deterministic request schedule."""
    rng = random.Random(config.seed)
    if config.arrivals == "diurnal":
        times = modulated_arrivals(
            config.offered_qps,
            config.duration_s,
            usenet_diurnal_profile(),
            rng,
        )
    else:
        times = poisson_arrivals(config.offered_qps, config.duration_s, rng)
    schedule = []
    for t in times:
        tenant, user_id = config.population.sample(rng)
        t1 = rng.randint(config.t_lo, config.t_hi)
        t2 = rng.randint(t1, config.t_hi)
        if rng.random() < config.probe_fraction:
            schedule.append(
                ScheduledRequest(
                    t, tenant, user_id, "probe",
                    rng.randint(1, config.domain), t1, t2,
                )
            )
        else:
            schedule.append(
                ScheduledRequest(t, tenant, user_id, "scan", None, t1, t2)
            )
    return schedule


@dataclass
class LoadReport:
    """Outcome of one open-loop burst (all latencies wall-clock)."""

    offered: int
    offered_qps: float
    wall_duration_s: float
    completed: int
    rejected: dict[str, int]
    errors: int
    latency: dict[str, float]
    per_tenant: dict[str, dict[str, int]]
    max_lag_s: float
    #: Transport-level failures (torn streams) — a subset of ``errors``.
    transport_errors: int = 0
    #: Per-tenant per-code rejection breakdown: which tenant was turned
    #: away for which reason (the fair-queueing claims read this).
    rejected_by_tenant: dict[str, dict[str, int]] = field(
        default_factory=dict
    )
    #: Backend attempts per offered request over this burst: 1.0 for a
    #: plain client; > 1.0 measures the retry/hedge overhead a
    #: :class:`~repro.serve.resilience.ResilientClient` added.
    amplification: float = 1.0
    #: Resilience deltas over the burst (hedges, retries, budget
    #: denials...) when the client exposes
    #: :class:`~repro.serve.resilience.ResilienceStats`.
    resilience: dict[str, float] | None = None

    @property
    def shed(self) -> int:
        """Return how many requests the shed policy turned away."""
        return self.rejected.get("shed-overload", 0)

    @property
    def admitted_qps(self) -> float:
        """Return completed requests per wall-clock second."""
        if self.wall_duration_s <= 0:
            return 0.0
        return self.completed / self.wall_duration_s

    @property
    def shed_ratio(self) -> float:
        """Return the fraction of offered requests that were shed."""
        return self.shed / self.offered if self.offered else 0.0

    @property
    def reject_ratio(self) -> float:
        """Return the fraction of offered requests rejected for any reason."""
        total = sum(self.rejected.values())
        return total / self.offered if self.offered else 0.0

    def to_dict(self) -> dict[str, Any]:
        """Return the JSON-serialisable report."""
        return {
            "offered": self.offered,
            "offered_qps": self.offered_qps,
            "wall_duration_s": self.wall_duration_s,
            "completed": self.completed,
            "admitted_qps": self.admitted_qps,
            "rejected": dict(sorted(self.rejected.items())),
            "shed_ratio": self.shed_ratio,
            "errors": self.errors,
            "latency": self.latency,
            "per_tenant": {
                k: dict(v) for k, v in sorted(self.per_tenant.items())
            },
            "max_lag_s": self.max_lag_s,
            "transport_errors": self.transport_errors,
            "rejected_by_tenant": {
                k: dict(sorted(v.items()))
                for k, v in sorted(self.rejected_by_tenant.items())
            },
            "amplification": self.amplification,
            **(
                {} if self.resilience is None
                else {"resilience": dict(self.resilience)}
            ),
        }


async def run_load(
    client: Any,
    config: LoadConfig,
    *,
    schedule: list[ScheduledRequest] | None = None,
) -> LoadReport:
    """Replay a schedule against ``client`` in open loop.

    Arrivals and latencies are timed on the running loop's clock.

    ``schedule`` defaults to ``build_schedule(config)``; pass one
    explicitly to offer byte-identical traffic to several clients or
    server configurations (the A/B shape every bench claim relies on).
    """
    if schedule is None:
        schedule = build_schedule(config)
    loop = asyncio.get_running_loop()
    clock = loop.time
    latencies = Histogram("loadgen.latency")
    rejected: dict[str, int] = {}
    per_tenant: dict[str, dict[str, int]] = {}
    rejected_by_tenant: dict[str, dict[str, int]] = {}
    completed = 0
    errors = 0
    transport_errors = 0
    max_lag = 0.0
    # Amplification is measured as a delta over the burst so one client
    # can serve several bursts without cross-contamination.
    res_stats = getattr(client, "stats", None)
    if not isinstance(res_stats, ResilienceStats):
        res_stats = None
    res_before = res_stats.to_dict() if res_stats is not None else None

    def tenant_bin(tenant: str) -> dict[str, int]:
        return per_tenant.setdefault(
            tenant, {"offered": 0, "completed": 0, "rejected": 0}
        )

    async def issue(request: ScheduledRequest) -> None:
        nonlocal completed, errors, transport_errors
        started = clock()
        try:
            if request.op == "probe":
                await client.probe(
                    request.value, request.t1, request.t2,
                    tenant=request.tenant,
                    deadline_ms=config.deadline_ms,
                )
            else:
                await client.scan(
                    request.t1, request.t2,
                    tenant=request.tenant,
                    deadline_ms=config.deadline_ms,
                )
        except RequestRejected as exc:
            rejected[exc.code] = rejected.get(exc.code, 0) + 1
            tenant_bin(request.tenant)["rejected"] += 1
            by_code = rejected_by_tenant.setdefault(request.tenant, {})
            by_code[exc.code] = by_code.get(exc.code, 0) + 1
            return
        except TransportError:
            transport_errors += 1
            errors += 1
            return
        except (FrontendError, ConnectionError, OSError):
            errors += 1
            return
        completed += 1
        tenant_bin(request.tenant)["completed"] += 1
        latencies.observe(clock() - started)

    tasks: list[asyncio.Task] = []
    start = clock()
    for request in schedule:
        tenant_bin(request.tenant)["offered"] += 1
        due = start + request.at
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        else:
            max_lag = max(max_lag, -delay)
        tasks.append(loop.create_task(issue(request)))
    if tasks:
        await asyncio.gather(*tasks)
    wall = clock() - start
    amplification = 1.0
    resilience: dict[str, float] | None = None
    if res_stats is not None and res_before is not None:
        after = res_stats.to_dict()
        resilience = {
            key: after[key] - res_before[key]
            for key in (
                "requests", "attempts", "hedges", "hedge_wins",
                "retries", "budget_denied", "failovers",
            )
        }
        if schedule:
            amplification = resilience["attempts"] / len(schedule)
    return LoadReport(
        offered=len(schedule),
        offered_qps=len(schedule) / config.duration_s,
        wall_duration_s=wall,
        completed=completed,
        rejected=rejected,
        errors=errors,
        latency=latencies.summary(),
        per_tenant=per_tenant,
        max_lag_s=max_lag,
        transport_errors=transport_errors,
        rejected_by_tenant=rejected_by_tenant,
        amplification=amplification,
        resilience=resilience,
    )


__all__ = [
    "ARRIVAL_KINDS",
    "LoadConfig",
    "LoadReport",
    "ScheduledRequest",
    "TenantPopulation",
    "build_schedule",
    "modulated_arrivals",
    "poisson_arrivals",
    "run_load",
    "usenet_diurnal_profile",
]

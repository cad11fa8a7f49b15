"""The frontend saturation bench: offered load swept past the knee.

``repro bench-frontend`` boots the asyncio admission pipeline over a
demo cluster in-process and sweeps offered load from well below to well
past its configured capacity — once under the **shed** overload policy
and once under **queue** — replaying byte-identical open-loop schedules
at each step so the two policies face exactly the same traffic.

The claims under test:

* **Graceful degradation** — past the saturation knee the shed policy
  holds admitted-request p95 within ``2x`` of the pre-knee value at
  every overloaded step: the bounded queue caps how long any admitted
  request can wait, and everything beyond that bound is refused instead
  of queued.
* **Queue-policy collapse** — at the same offered load the queue policy
  (backpressure: submitters wait for space) lets p95 grow with the
  backlog, far past the graceful bound, and worse than shed at every
  overloaded step.
* At sub-saturation load the two policies are equivalent: nothing is
  shed, and both complete the identical schedule.

The sweep runs on a :class:`~repro.serve.vtime.VirtualTimeLoop`, so the
report is the same on every machine and is regenerated byte for byte.
Service time: the simulated substrate answers in *simulated* seconds
and, on virtual time, in no time at all, so the backend awaits a loop
timer of ``service_us`` per request before it calls the coordinator;
timers overlap across dispatchers.  That stands in for the device time
the simulator only accounts and fixes capacity at ``max_concurrency /
service_s`` (800 qps by default).  The knee's admitted qps is reported
(``frontend_knee_qps``) but gates nothing: it measures the stand-in
service time, not the system — ``perf/`` owns the wall-clock numbers.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from typing import Any

from ..errors import FrontendError
from ..loadgen import LoadConfig, TenantPopulation, run_load
from ..serve import vtime
from ..serve.adaptive import AdaptiveConfig
from ..serve.admission import (
    AdmissionConfig,
    AdmissionController,
    CoordinatorBackend,
)
from ..serve.client import InProcessClient
from ..serve.demo import DemoClusterConfig, build_demo_cluster
from .harness import SCHEMA_VERSION, Bench, Schema, claim_passes

#: Keys every sweep step must carry.
REQUIRED_STEP_KEYS = (
    "multiplier",
    "offered_qps_target",
    "offered",
    "completed",
    "admitted_qps",
    "shed_ratio",
    "p95_s",
)

#: A step sheds "nothing" when its reject ratio stays under this.
KNEE_REJECT_EPS = 0.05

#: The graceful-degradation bound: shed p95 past the knee must stay
#: within this factor of the pre-knee p95.
GRACEFUL_FACTOR = 2.0


@dataclass(frozen=True)
class FrontendBenchConfig:
    """Parameters of the saturation sweep.

    ``service_us`` and ``max_concurrency`` fix the knee's position; the
    admission shape (two dispatchers, 4-request batches, a 12-deep
    queue) keeps the full-queue wait within one or two dispatch cycles,
    which is what makes the 2x graceful bound a property of the
    *policy*.
    """

    cluster: DemoClusterConfig = DemoClusterConfig()
    #: Queue depth is deliberately *shallow in time* (~depth/capacity
    #: of wait): the graceful-degradation bound is exactly the bounded
    #: queue's worst-case wait, so keep it within one service time or
    #: so of the pre-knee latency.
    max_queue_depth: int = 12
    max_concurrency: int = 2
    batch_max: int = 4
    #: Microseconds the backend waits per request (see module
    #: docstring); with ``max_concurrency`` it fixes capacity.
    service_us: float = 2_500.0
    #: Offered-load multipliers swept against the configured capacity;
    #: must straddle 1.0 so the knee is inside the sweep.  A step near
    #: 0.9 matters: it anchors the pre-knee latency reference at
    #: near-saturation queueing instead of an idle-system number.
    load_multipliers: tuple[float, ...] = (0.3, 0.6, 0.9, 1.5, 2.25, 3.0)
    step_duration_s: float = 0.8
    #: Sweep steps use constant-rate Poisson arrivals: the claims need
    #: the offered rate pinned at its multiplier for the whole step.
    #: The diurnal profile sweeps *through* rates by design — use it
    #: via ``repro loadgen``, not here.
    arrivals: str = "poisson"
    n_users: int = 1_000_000
    n_tenants: int = 8
    probe_fraction: float = 0.9
    #: Request-queue discipline: ``"fifo"`` (the PR 8 baseline) or
    #: ``"drr"`` (per-tenant deficit round-robin).  The saturation
    #: claims must hold under either — ``--queue-policy drr`` on the
    #: CLI re-asserts them over the fair queue.
    queue_discipline: str = "fifo"
    #: Enable AIMD adaptive concurrency on the dispatcher pool.  Off by
    #: default so the committed artifact stays bit-equivalent to the
    #: PR 8 fixed-dispatcher pipeline.
    adaptive: bool = False
    #: Absolute p95 SLO the AIMD controller defends when ``adaptive``
    #: is on.  Set comfortably above the shed policy's bounded-queue
    #: worst case: the limit then only shrinks when latency truly blows
    #: up (the queue policy past the knee), which is exactly the
    #: behaviour the claims expect to survive.
    adaptive_target_p95_s: float = 0.25
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.load_multipliers:
            raise FrontendError("load_multipliers must not be empty")
        if sorted(self.load_multipliers) != list(self.load_multipliers):
            raise FrontendError("load_multipliers must be increasing")
        if self.load_multipliers[0] >= 1.0 or self.load_multipliers[-1] <= 1.0:
            raise FrontendError(
                "load_multipliers must straddle 1.0 so the sweep "
                f"crosses the knee, got {self.load_multipliers}"
            )
        if self.step_duration_s <= 0:
            raise FrontendError(
                f"step_duration_s must be > 0, got {self.step_duration_s}"
            )
        if self.service_us <= 0:
            raise FrontendError(
                f"service_us must be > 0, got {self.service_us}"
            )


def quick_config(
    base: FrontendBenchConfig | None = None,
) -> FrontendBenchConfig:
    """Return the CI-sized sweep: same policies, shorter steps."""
    base = base or FrontendBenchConfig()
    return replace(
        base,
        load_multipliers=(0.4, 0.9, 1.6, 3.0),
        step_duration_s=0.45,
    )


class ServiceDelayBackend:
    """Backend wrapper adding service time per request.

    The sleep is awaited on the event loop *before* the coordinator is
    called, so delays overlap across dispatchers like I/O on independent
    devices would, while the simulated substrate itself is called by one
    batch at a time.
    """

    def __init__(self, inner: CoordinatorBackend, service_us: float) -> None:
        self.inner = inner
        self.service_s = service_us / 1e6

    async def _delay(self, n: int) -> None:
        if self.service_s > 0:
            await asyncio.sleep(self.service_s * n)

    async def probe_many(self, specs: list) -> list:
        await self._delay(len(specs))
        return await self.inner.probe_many(specs)

    async def scan_many(self, specs: list) -> list:
        await self._delay(len(specs))
        return await self.inner.scan_many(specs)


def _admission_config(
    config: FrontendBenchConfig, policy: str
) -> AdmissionConfig:
    adaptive = None
    if config.adaptive:
        adaptive = AdaptiveConfig(
            min_concurrency=1,
            max_concurrency=config.max_concurrency,
            target_p95_s=config.adaptive_target_p95_s,
        )
    return AdmissionConfig(
        max_queue_depth=config.max_queue_depth,
        overload_policy=policy,
        max_concurrency=config.max_concurrency,
        batch_max=config.batch_max,
        queue_discipline=config.queue_discipline,
        adaptive=adaptive,
    )


def _load_config(
    config: FrontendBenchConfig,
    cluster: DemoClusterConfig,
    *,
    offered_qps: float,
    duration_s: float,
    seed: int,
) -> LoadConfig:
    return LoadConfig(
        duration_s=duration_s,
        offered_qps=offered_qps,
        arrivals=config.arrivals,
        population=TenantPopulation(
            n_users=config.n_users, n_tenants=config.n_tenants
        ),
        probe_fraction=config.probe_fraction,
        domain=cluster.domain,
        t_lo=cluster.oldest_day,
        t_hi=cluster.last_day,
        seed=seed,
    )


async def _run_step(
    backend: Any,
    config: FrontendBenchConfig,
    load: LoadConfig,
    policy: str,
) -> dict[str, Any]:
    """Run one sweep step on a fresh controller; return its row."""
    controller = AdmissionController(backend, _admission_config(config, policy))
    controller.start()
    try:
        report = await run_load(InProcessClient(controller), load)
    finally:
        await controller.drain()
    return {
        "offered": report.offered,
        "offered_qps": report.offered_qps,
        "completed": report.completed,
        "admitted_qps": report.admitted_qps,
        "shed_ratio": report.shed_ratio,
        "reject_ratio": report.reject_ratio,
        "errors": report.errors,
        "wall_duration_s": report.wall_duration_s,
        "max_lag_s": report.max_lag_s,
        "mean_s": report.latency["mean"],
        "p50_s": report.latency["p50"],
        "p95_s": report.latency["p95"],
        "p99_s": report.latency["p99"],
    }


async def _run_sweeps(config: FrontendBenchConfig) -> dict[str, Any]:
    sim = build_demo_cluster(config.cluster)
    backend = ServiceDelayBackend(
        CoordinatorBackend(sim.coordinator), config.service_us
    )
    # Each dispatcher serves one request per service time.
    capacity = config.max_concurrency * 1e6 / config.service_us
    sweeps: dict[str, list[dict[str, Any]]] = {"shed": [], "queue": []}
    for i, multiplier in enumerate(config.load_multipliers):
        offered = capacity * multiplier
        for policy in ("shed", "queue"):
            # Same seed for both policies at the same step: the two
            # schedules are identical, so any divergence is the policy.
            load = _load_config(
                config, config.cluster,
                offered_qps=offered,
                duration_s=config.step_duration_s,
                seed=config.seed + 1 + i,
            )
            row = await _run_step(backend, config, load, policy)
            row["multiplier"] = multiplier
            row["offered_qps_target"] = offered
            sweeps[policy].append(row)
    return {"capacity_qps": capacity, "sweeps": sweeps}


def _knee(candidates: list[dict[str, Any]]) -> dict[str, Any]:
    """Return the knee step: the highest load shed keeps up with.

    When every step sheds, the highest load stands in for it.
    """
    keeping_up = [
        s for s in candidates if s["reject_ratio"] <= KNEE_REJECT_EPS
    ]
    return max(keeping_up or candidates, key=lambda s: s["multiplier"])


def run_frontend_bench(
    config: FrontendBenchConfig | None = None,
) -> dict[str, Any]:
    """Run the saturation sweep; return the report dict."""
    config = config or FrontendBenchConfig()
    measured = vtime.run(_run_sweeps(config))

    shed_steps = measured["sweeps"]["shed"]
    queue_steps = measured["sweeps"]["queue"]
    knee = _knee(shed_steps)
    # Pre-knee latency: the worst p95 of the steps up to the knee —
    # "what latency looked like just before saturation".
    pre_knee_p95 = max(
        s["p95_s"] for s in shed_steps
        if s["multiplier"] <= knee["multiplier"]
    )
    overloaded = [
        i for i, s in enumerate(shed_steps) if s["multiplier"] > 1.0
    ]
    # The worst overloaded step of each policy is its overload latency.
    shed_overload = max(
        (shed_steps[i] for i in overloaded), key=lambda s: s["p95_s"]
    )
    queue_overload = queue_steps[-1]

    shed_ratio = (
        shed_overload["p95_s"] / pre_knee_p95 if pre_knee_p95 > 0 else None
    )
    queue_over_shed = (
        queue_overload["p95_s"] / shed_overload["p95_s"]
        if shed_overload["p95_s"] > 0
        else None
    )
    claim = {
        "graceful_shed": (
            shed_ratio is not None and shed_ratio <= GRACEFUL_FACTOR
        ),
        "queue_p95_degrades": (
            pre_knee_p95 > 0
            and queue_overload["p95_s"] > GRACEFUL_FACTOR * pre_knee_p95
        ),
        "shed_beats_queue_at_overload": all(
            shed_steps[i]["p95_s"] < queue_steps[i]["p95_s"]
            for i in overloaded
        ),
        "subsaturation_equivalent": _subsaturation_equivalent(
            shed_steps, queue_steps
        ),
    }
    claim["pass"] = all(claim.values())

    headline = {
        "frontend_knee_qps": knee["admitted_qps"],
        "knee_multiplier": knee["multiplier"],
        "knee_offered_qps": knee["offered_qps_target"],
        "pre_knee_p95_s": pre_knee_p95,
        "shed_overload_p95_s": shed_overload["p95_s"],
        "queue_overload_p95_s": queue_overload["p95_s"],
        "shed_p95_over_pre_knee": shed_ratio,
        "queue_p95_over_shed_p95": queue_over_shed,
        "overload_multiplier": shed_overload["multiplier"],
        "queue_overload_multiplier": queue_overload["multiplier"],
        "shed_ratio_at_overload": shed_overload["shed_ratio"],
        "claim": claim,
    }
    report = {
        "bench": "frontend",
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "window": config.cluster.window,
            "n_indexes": config.cluster.n_indexes,
            "scheme": config.cluster.scheme,
            "n_shards": config.cluster.n_shards,
            "domain": config.cluster.domain,
            "max_queue_depth": config.max_queue_depth,
            "max_concurrency": config.max_concurrency,
            "batch_max": config.batch_max,
            "service_us": config.service_us,
            "queue_discipline": config.queue_discipline,
            "adaptive": config.adaptive,
            "load_multipliers": list(config.load_multipliers),
            "step_duration_s": config.step_duration_s,
            "arrivals": config.arrivals,
            "n_users": config.n_users,
            "n_tenants": config.n_tenants,
            "probe_fraction": config.probe_fraction,
            "seed": config.seed,
        },
        "measured": measured,
        "headline": headline,
    }
    return BENCH.validate(report)


def _subsaturation_equivalent(
    shed_steps: list[dict[str, Any]],
    queue_steps: list[dict[str, Any]],
) -> bool:
    """Below the knee the two policies must behave identically.

    They were offered byte-identical schedules, so every sub-saturation
    step must complete the same requests with nothing shed under
    either policy.
    """
    for shed, queue in zip(shed_steps, queue_steps):
        if shed["multiplier"] >= 1.0:
            continue
        if shed["shed_ratio"] > 0.0:
            continue  # a burst overflowed the bounded queue; not comparable
        if queue["shed_ratio"] != 0.0:
            return False
        if shed["offered"] != queue["offered"]:
            return False
        if shed["completed"] != queue["completed"]:
            return False
    return True


def _check(report: dict[str, Any]) -> None:
    sweeps = report["measured"].get("sweeps", {})
    for policy in ("shed", "queue"):
        steps = sweeps.get(policy)
        if not steps:
            raise ValueError(f"no sweep steps for policy {policy!r}")
        for step in steps:
            for key in REQUIRED_STEP_KEYS:
                if key not in step:
                    raise ValueError(
                        f"{policy} step multiplier="
                        f"{step.get('multiplier')} missing key {key!r}"
                    )
    if report["headline"]["frontend_knee_qps"] < 0:
        raise ValueError("negative frontend_knee_qps")


def render_summary(report: dict[str, Any]) -> str:
    """Return a human-readable bench summary for the CLI."""
    w = report["workload"]
    m = report["measured"]
    h = report["headline"]
    lines = [
        f"Frontend saturation sweep: {w['scheme']} W={w['window']} "
        f"k={w['n_shards']}, {w['arrivals']} arrivals, "
        f"{w['n_users']:,} users / {w['n_tenants']} tenants",
        f"pipeline: queue {w['max_queue_depth']}, "
        f"{w['max_concurrency']} dispatchers, batch {w['batch_max']}, "
        f"service {w['service_us']:.0f} us/req",
        f"configured capacity {m['capacity_qps']:.0f} qps",
        "",
        f"{'policy':>6} {'x':>5} {'offered/s':>10} {'admitted/s':>11} "
        f"{'shed':>6} {'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8}",
    ]
    rows = [("shed", s) for s in m["sweeps"]["shed"]]
    rows.extend(("queue", s) for s in m["sweeps"]["queue"])
    for policy, step in rows:
        lines.append(
            f"{policy:>6} {step['multiplier']:>5.2f} "
            f"{step['offered_qps_target']:>10.0f} "
            f"{step['admitted_qps']:>11.0f} "
            f"{step['shed_ratio']:>6.1%} "
            f"{step['p50_s'] * 1e3:>8.1f} "
            f"{step['p95_s'] * 1e3:>8.1f} "
            f"{step['p99_s'] * 1e3:>8.1f}"
        )
    lines.append("")
    lines.append(
        f"  knee at {h['knee_multiplier']:.2f}x: sustained "
        f"{h['frontend_knee_qps']:.0f} admitted qps; pre-knee p95 "
        f"{h['pre_knee_p95_s'] * 1e3:.1f} ms"
    )
    shed_x = h["shed_p95_over_pre_knee"]
    queue_x = h["queue_p95_over_shed_p95"]
    lines.append(
        f"  past the knee: shed p95 "
        f"{h['shed_overload_p95_s'] * 1e3:.1f} ms at "
        f"{h['overload_multiplier']:.2f}x "
        f"({'n/a' if shed_x is None else f'{shed_x:.2f}x pre-knee'}); "
        f"queue p95 {h['queue_overload_p95_s'] * 1e3:.1f} ms at "
        f"{h['queue_overload_multiplier']:.2f}x "
        f"({'n/a' if queue_x is None else f'{queue_x:.1f}x shed'})"
    )
    c = h["claim"]
    lines.append(
        f"  claims: graceful_shed={c['graceful_shed']} "
        f"queue_p95_degrades={c['queue_p95_degrades']} "
        f"shed_beats_queue={c['shed_beats_queue_at_overload']} "
        f"subsaturation_equivalent={c['subsaturation_equivalent']} "
        f"-> {'PASS' if c['pass'] else 'FAIL'}"
    )
    return "\n".join(lines)


BENCH = Bench(
    name="frontend",
    config=FrontendBenchConfig,
    quick_config=quick_config,
    run=run_frontend_bench,
    render_summary=render_summary,
    schema=Schema(
        keys=("workload", "measured", "headline"),
        headline=(
            "frontend_knee_qps",
            "knee_multiplier",
            "pre_knee_p95_s",
            "shed_overload_p95_s",
            "queue_overload_p95_s",
            "shed_p95_over_pre_knee",
            "queue_p95_over_shed_p95",
            "claim",
        ),
    ),
    claim=claim_passes,
    check=_check,
)


__all__ = [
    "BENCH",
    "FrontendBenchConfig",
    "GRACEFUL_FACTOR",
    "KNEE_REJECT_EPS",
    "SCHEMA_VERSION",
    "ServiceDelayBackend",
    "quick_config",
    "render_summary",
    "run_frontend_bench",
]

"""Multi-frontend fleets and rolling-restart orchestration.

One cluster, several :class:`~repro.serve.server.FrontendServer`\\ s: the
deployment shape every resilience claim is made against.  The fleet
shares a single :class:`~repro.serve.admission.CoordinatorBackend`
across frontends — the simulated substrate under the coordinator is
single-threaded state, so all frontends' executor threads must
serialize through the same lock — while each frontend keeps its own
admission pipeline, metrics registry, and TCP listener.

:class:`RollingRestartOrchestrator` is the deploy story: take frontends
down **one at a time**, each through the PR 8 drain gate (stop
admitting, let queued and in-flight work finish, then close), bring the
replacement up on the *same port* (clients reconnect lazily to the
saved address), and settle before touching the next one.  A
:class:`~repro.serve.resilience.ResilientClient` pointed at the fleet
retries ``draining`` rejections and torn streams on the surviving
frontends, which is what turns "a third of the fleet is restarting"
into "nobody lost a request" — the claim
``repro bench-resilience`` gates its exit code on.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import FrontendError
from ..obs import MetricsRegistry
from .admission import AdmissionConfig, CoordinatorBackend
from .client import FrontendClient
from .resilience import ResilientClient, ResilientClientConfig
from .server import FrontendServer


class FrontendFleet:
    """N frontends over one coordinator, restartable one by one.

    Args:
        coordinator: The cluster front door shared by every frontend.
        config: Admission tuning applied to each frontend.
        n_frontends: Fleet size (>= 1).
        host: Listen address (loopback; this is a harness, not a
            deployment).
        wrap_backend: Optional per-frontend backend decorator
            ``(idx, shared_backend) -> backend``.  The chaos harness
            injects per-frontend faults (extra service delay, raised
            errors) this way while the shared lock underneath keeps the
            substrate single-threaded.
    """

    def __init__(
        self,
        coordinator: Any,
        config: AdmissionConfig | None = None,
        *,
        n_frontends: int = 3,
        host: str = "127.0.0.1",
        wrap_backend: Callable[[int, Any], Any] | None = None,
    ) -> None:
        if n_frontends < 1:
            raise FrontendError(
                f"n_frontends must be >= 1, got {n_frontends}"
            )
        self.coordinator = coordinator
        self.config = config or AdmissionConfig()
        self.host = host
        self.wrap_backend = wrap_backend
        self.backend = CoordinatorBackend(coordinator)
        self.servers: list[FrontendServer | None] = [None] * n_frontends
        self.ports: list[int | None] = [None] * n_frontends
        self.restarts = 0

    def __len__(self) -> int:
        return len(self.servers)

    async def start(self) -> None:
        """Boot every frontend on an ephemeral port."""
        for idx in range(len(self.servers)):
            await self._boot(idx, port=0)

    async def _boot(self, idx: int, *, port: int) -> None:
        backend = self.backend
        if self.wrap_backend is not None:
            backend = self.wrap_backend(idx, self.backend)
        server = FrontendServer(
            self.coordinator, self.config,
            metrics=MetricsRegistry(), backend=backend,
        )
        await server.start(self.host, port)
        self.servers[idx] = server
        self.ports[idx] = server.port

    async def restart(
        self, idx: int, *, graceful: bool = True,
        drain_timeout_s: float | None = None,
    ) -> bool:
        """Replace frontend ``idx``; rebind its port so clients find it.

        ``graceful`` drains through the PR 8 gate (returns whether the
        drain finished inside the timeout); ``False`` models a crash via
        :meth:`FrontendServer.abort` (in-flight requests tear).
        """
        server = self.servers[idx]
        if server is None:
            raise FrontendError(f"frontend {idx} is not running")
        if graceful:
            clean = await server.drain_and_close(drain_timeout_s)
        else:
            await server.abort()
            clean = False
        self.servers[idx] = None
        await self._boot(idx, port=self.ports[idx] or 0)
        self.restarts += 1
        return clean

    async def kill(self, idx: int) -> None:
        """Crash frontend ``idx`` and leave its port dark (chaos)."""
        server = self.servers[idx]
        if server is None:
            return
        await server.abort()
        self.servers[idx] = None

    async def revive(self, idx: int) -> None:
        """Bring a killed frontend back on its old port."""
        if self.servers[idx] is not None:
            return
        await self._boot(idx, port=self.ports[idx] or 0)
        self.restarts += 1

    async def close(self) -> None:
        """Tear the whole fleet down (graceful, short timeout)."""
        for idx, server in enumerate(self.servers):
            if server is not None:
                await server.drain_and_close(1.0)
                self.servers[idx] = None

    async def client(self, idx: int) -> FrontendClient:
        """Connect a plain client to one frontend."""
        port = self.ports[idx]
        if port is None:
            raise FrontendError(f"frontend {idx} was never started")
        return await FrontendClient().connect(self.host, port)

    async def resilient_client(
        self, config: ResilientClientConfig | None = None
    ) -> ResilientClient:
        """Connect a resilient client across the whole fleet."""
        clients = [await self.client(idx) for idx in range(len(self))]
        return ResilientClient(clients, config)

    def stats(self) -> dict[str, Any]:
        """Aggregate per-frontend counters (sum) for the harness."""
        totals: dict[str, float] = {}
        per_frontend: list[dict[str, Any]] = []
        for server in self.servers:
            if server is None:
                per_frontend.append({"up": False})
                continue
            snapshot = server.stats()
            per_frontend.append({"up": True, **snapshot})
            for name, value in snapshot.get("counters", {}).items():
                totals[name] = totals.get(name, 0.0) + value
        return {"totals": totals, "frontends": per_frontend}


@dataclass
class RestartReport:
    """What a rolling restart did, per frontend."""

    restarted: list[int] = field(default_factory=list)
    clean_drains: int = 0
    wall_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "restarted": list(self.restarted),
            "clean_drains": self.clean_drains,
            "wall_s": self.wall_s,
        }


class RollingRestartOrchestrator:
    """Drain-and-replace every frontend, one at a time.

    Args:
        fleet: The fleet to roll.
        drain_timeout_s: Per-frontend drain budget.
        settle_s: Pause after each replacement so clients re-discover
            the frontend before the next one goes down (never less than
            one frontend short of the fleet is up at any moment).
    """

    def __init__(
        self,
        fleet: FrontendFleet,
        *,
        drain_timeout_s: float = 5.0,
        settle_s: float = 0.05,
    ) -> None:
        self.fleet = fleet
        self.drain_timeout_s = drain_timeout_s
        self.settle_s = settle_s

    async def rolling_restart(self) -> RestartReport:
        """Roll the whole fleet; returns what happened."""
        loop = asyncio.get_running_loop()
        report = RestartReport()
        started = loop.time()
        for idx in range(len(self.fleet)):
            clean = await self.fleet.restart(
                idx, graceful=True, drain_timeout_s=self.drain_timeout_s
            )
            report.restarted.append(idx)
            if clean:
                report.clean_drains += 1
            if self.settle_s > 0:
                await asyncio.sleep(self.settle_s)
        report.wall_s = loop.time() - started
        return report


__all__ = ["FrontendFleet", "RestartReport", "RollingRestartOrchestrator"]

"""Real-concurrency serving frontend over the cluster coordinator.

Until this package, every number in the repo came from simulated clocks
inside one synchronous process.  ``repro.serve`` puts an actual service
in front of :class:`~repro.cluster.coordinator.ClusterCoordinator`:

* :mod:`repro.serve.protocol` — length-prefixed TCP protocol (JSON
  requests and errors, binary WIX1 result frames);
* :mod:`repro.serve.admission` — the admission-control pipeline
  (per-tenant token buckets, bounded queue with shed-vs-queue overload
  policy, concurrency-limited batched dispatch, deadline propagation
  with cancellation, graceful drain);
* :mod:`repro.serve.queueing` — request-queue disciplines: the global
  FIFO and per-tenant deficit-weighted round-robin (DRR) with fair
  shedding;
* :mod:`repro.serve.adaptive` — AIMD adaptive concurrency for the
  dispatcher pool;
* :mod:`repro.serve.server` — the asyncio TCP frontend;
* :mod:`repro.serve.client` — multiplexing TCP client (typed transport
  errors, lazy reconnect) and an in-process client with the same
  surface;
* :mod:`repro.serve.resilience` — client-side hedged requests, retry
  budgets, and the retryable-vs-fatal error taxonomy;
* :mod:`repro.serve.fleet` — multi-frontend fleets and zero-loss
  rolling-restart orchestration;
* :mod:`repro.serve.demo` — a seeded ready-to-serve cluster for the
  CLI, the load generator, and the saturation bench;
* :mod:`repro.serve.vtime` — an event loop on a virtual clock, which
  the serving benches run on.

The frontend is one thread.  The synchronous coordinator only
computes, so it is called on the event loop, between the loop's turns
of queueing, admission, deadline handling and I/O; a backend that
waits (a sleep, I/O) awaits on the same loop, so the simulated
substrate is single-threaded with no lock.  Latency and throughput
are measured by :mod:`repro.loadgen` on the loop's clock: the wall
clock under ``repro loadgen``, virtual time under
``repro bench-frontend`` and ``repro bench-resilience``.
"""

from .adaptive import AdaptiveConfig, AimdController
from .admission import (
    AdmissionConfig,
    AdmissionController,
    CoordinatorBackend,
    TokenBucket,
)
from .client import FrontendClient, InProcessClient
from .demo import DemoClusterConfig, build_demo_cluster
from .fleet import FrontendFleet, RestartReport, RollingRestartOrchestrator
from .queueing import DrrRequestQueue, FifoRequestQueue
from .resilience import (
    ResilienceStats,
    ResilientClient,
    ResilientClientConfig,
    RetryBudget,
    RetryBudgetConfig,
    is_retryable,
)
from .server import FrontendServer

__all__ = [
    "AdaptiveConfig",
    "AdmissionConfig",
    "AdmissionController",
    "AimdController",
    "CoordinatorBackend",
    "DemoClusterConfig",
    "DrrRequestQueue",
    "FifoRequestQueue",
    "FrontendClient",
    "FrontendFleet",
    "FrontendServer",
    "InProcessClient",
    "ResilienceStats",
    "ResilientClient",
    "ResilientClientConfig",
    "RestartReport",
    "RetryBudget",
    "RetryBudgetConfig",
    "RollingRestartOrchestrator",
    "TokenBucket",
    "build_demo_cluster",
    "is_retryable",
]

"""Cost-model-driven online tuning advisor (ROADMAP item 3).

A control plane over the cluster that closes the loop between the
paper's Section-5 analytic model and the running system:

* :mod:`repro.advisor.observer` — each shard's own traffic window
  (probe values, scans, newest-day scans) and its windowed probe/scan
  mix;
* :mod:`repro.advisor.calibrate` — substrate-measured model constants;
* :mod:`repro.advisor.planner` — ranks (scheme, n, technique) candidates
  with the analytic total-work measure, hysteresis, and an amortized
  switching charge;
* :mod:`repro.advisor.engine` — the ``retune`` kind of staged change:
  what an accepted switch builds, swaps and frees
  (:mod:`repro.core.staged` runs it online);
* :mod:`repro.advisor.router` — cost-aware routing across divergently
  tuned replicas.

Attach an :class:`AdvisorConfig` to ``ClusterConfig.advisor`` to enable
it; with the default ``None`` the cluster is bit-identical to an
advisor-less build.
"""

from .calibrate import calibrate_parameters
from .config import AdvisorConfig
from .engine import Retune, RetuneReport
from .observer import ShardObservation, TrafficWindow
from .planner import CostModelPlanner, Design, RetuneDecision
from .router import DesignRouter

__all__ = [
    "AdvisorConfig",
    "CostModelPlanner",
    "Design",
    "DesignRouter",
    "Retune",
    "RetuneDecision",
    "RetuneReport",
    "ShardObservation",
    "TrafficWindow",
    "calibrate_parameters",
]

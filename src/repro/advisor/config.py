"""Configuration for the online tuning advisor.

Mirrors :class:`~repro.cluster.elastic.ElasticConfig`: a frozen dataclass
attached to :class:`~repro.cluster.sim.ClusterConfig` (``advisor=``), with
eager validation so a bad knob fails at construction, not mid-run.  When
absent the cluster runs exactly as before — every advisor code path is
gated on the config's presence.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ClusterError
from ..index.updates import UpdateTechnique

#: Required *relative* improvement before a switch: the challenger's
#: predicted daily cost (switching charge included) must undercut the
#: incumbent's by this fraction.  Damps design oscillation under noisy
#: or oscillating workloads.
HYSTERESIS = 0.1


@dataclass(frozen=True)
class AdvisorConfig:
    """Knobs for the observe → plan → retune loop.

    Attributes:
        observe_days: Length of the workload observation window, in days.
            The planner abstains until the window is full, so the first
            possible retune lands on day ``W + observe_days + 1``.
        amortization_days: Days over which the one-time rebuild cost of a
            design switch is amortized into the challenger's daily cost.
            Small values make the advisor eager; large values conservative.
        cooldown_days: Minimum days between retunes of the same replica
            (decisions during cooldown are suppressed, not queued).
        candidate_n: Constituent counts to consider; empty derives a small
            spread from the window (1, 2, W/2, W clamped to legal range).
        techniques: Update-technique values (:class:`UpdateTechnique`)
            the planner may choose for a new design.
        divergent: With replication >= 2, tune replicas of one shard
            *differently* — even replica ids see a probe-only projection
            of the observation, odd ids a scan-only projection — and let
            the cost-aware router send each query to the cheaper twin.
    """

    observe_days: int = 2
    amortization_days: int = 7
    cooldown_days: int = 2
    candidate_n: tuple[int, ...] = ()
    techniques: tuple[str, ...] = (UpdateTechnique.SIMPLE_SHADOW.value,)
    divergent: bool = False

    def __post_init__(self) -> None:
        if self.observe_days < 1:
            raise ClusterError(
                f"observe_days must be >= 1, got {self.observe_days}"
            )
        if self.amortization_days < 1:
            raise ClusterError(
                f"amortization_days must be >= 1, got {self.amortization_days}"
            )
        if self.cooldown_days < 0:
            raise ClusterError(
                f"cooldown_days must be >= 0, got {self.cooldown_days}"
            )
        for n in self.candidate_n:
            if n < 1:
                raise ClusterError(f"candidate_n entries must be >= 1, got {n}")
        if not self.techniques:
            raise ClusterError("techniques must not be empty")
        for value in self.techniques:
            try:
                UpdateTechnique(value)
            except ValueError:
                valid = [t.value for t in UpdateTechnique]
                raise ClusterError(
                    f"unknown technique {value!r}; valid: {valid}"
                ) from None

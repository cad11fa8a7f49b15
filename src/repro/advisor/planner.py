"""Cost-model planner: rank designs for an observed workload.

The planner closes the loop ROADMAP item 3 asks for: the Section-5
analytic model stops merely *validating* the simulator and starts
*driving* it.  Each day boundary it projects the shard's observed
probe/scan mix onto the calibrated :class:`CostParameters` via
``with_overrides``, prices every candidate (scheme, n, technique) with
:func:`~repro.analysis.daycount.steady_state` — the same total-work
measure the paper's figures plot — and emits a :class:`RetuneDecision`
only when a challenger clears the incumbent by the hysteresis margin
*after* paying an amortized switching charge.

Switching is never free: a retune rebuilds the whole window under the
new design (~``W × Build`` seconds), so that cost is spread over
``amortization_days`` and added to every non-incumbent candidate.  The
hysteresis margin then guards against flapping between near-tied
designs; per-replica cooldowns guard against back-to-back churn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

from ..analysis.daycount import steady_state
from ..analysis.parameters import CostParameters
from ..core.schemes import scheme_by_name
from ..index.updates import UpdateTechnique
from .config import HYSTERESIS, AdvisorConfig
from .observer import ShardObservation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.shard import ShardReplica

#: The schemes the planner ranks, each at every candidate ``n``.
CANDIDATE_SCHEMES = ("DEL", "REINDEX+", "WATA*")


@dataclass(frozen=True)
class Design:
    """One (scheme, n, technique) configuration of a wave index."""

    scheme: str
    n_indexes: int
    technique: str

    @property
    def label(self) -> str:
        """Return the compact display form, e.g. ``"DEL/7/simple_shadow"``."""
        return f"{self.scheme}/{self.n_indexes}/{self.technique}"


@dataclass(frozen=True)
class RetuneDecision:
    """An accepted design switch, ready for the engine to execute
    (``shard_id`` / ``replica_id`` as numbered the day it was made)."""

    shard_id: int
    replica_id: int
    day: int
    current: Design
    target: Design
    #: Predicted daily seconds under the incumbent design.
    predicted_current_s: float
    #: Predicted daily seconds under the target (switching charge included).
    predicted_target_s: float
    #: The amortized daily switching charge folded into the target's cost.
    switch_charge_s: float


class CostModelPlanner:
    """Ranks candidate designs against observations; applies hysteresis.

    Args:
        params: Calibrated cost parameters for this cluster's substrate
            (see :func:`repro.advisor.calibrate.calibrate_parameters`);
            ``params.window`` must equal the cluster's window.
        config: The advisor knobs.
    """

    def __init__(self, params: CostParameters, config: AdvisorConfig) -> None:
        self.params = params
        self.config = config
        self._cost_cache: dict[tuple, float] = {}
        #: The day each replica was last retuned, keyed by the replica:
        #: a replica that leaves the cluster takes its entry with it.
        self._last_retune: WeakKeyDictionary[ShardReplica, int] = (
            WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # Candidate enumeration and pricing
    # ------------------------------------------------------------------

    def candidates(self) -> list[Design]:
        """Return every legal (scheme, n, technique) candidate."""
        window = self.params.window
        ns = tuple(self.config.candidate_n) or tuple(
            sorted({1, 2, max(2, window // 2), window})
        )
        out: list[Design] = []
        for name in CANDIDATE_SCHEMES:
            scheme_cls = scheme_by_name(name)
            for n in ns:
                if not scheme_cls.min_indexes <= n <= window:
                    continue
                for technique in self.config.techniques:
                    out.append(Design(name, n, technique))
        return out

    def predict(self, design: Design, obs: ShardObservation) -> float:
        """Return the design's predicted steady-state daily seconds."""
        key = (
            design,
            round(obs.probes_per_day, 6),
            round(obs.scans_per_day, 6),
            obs.scan_target,
        )
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        params = self.params.with_overrides(
            probe_num=obs.probes_per_day,
            scan_num=obs.scans_per_day,
            scan_target=obs.scan_target,
        )
        scheme_cls = scheme_by_name(design.scheme)
        averages = steady_state(
            lambda: scheme_cls(params.window, design.n_indexes),
            params,
            UpdateTechnique(design.technique),
            measure_cycles=1,
        )
        self._cost_cache[key] = averages.total_work_s
        return averages.total_work_s

    @property
    def switch_charge_s(self) -> float:
        """Return the amortized daily charge for adopting a new design.

        A retune rebuilds the full window from the record store, roughly
        ``W × Build`` seconds of one-time work, spread over
        ``amortization_days``.
        """
        build = self.params.window * self.params.implementation.build_s
        return build / self.config.amortization_days

    # ------------------------------------------------------------------
    # Per-replica observation projection (divergent twins)
    # ------------------------------------------------------------------

    def replica_view(
        self, obs: ShardObservation, replica_id: int, replication: int
    ) -> ShardObservation:
        """Return the observation slice this replica should optimize for.

        Uniform mode (or a single replica) sees the whole mix.  Divergent
        mode splits the shard's traffic by access type: even replica ids
        become the probe twin (scans zeroed), odd ids the scan twin
        (probes zeroed) — the router then sends each query to the twin
        tuned for it.
        """
        if not self.config.divergent or replication < 2:
            return obs
        if replica_id % 2 == 0:
            return replace(obs, scans_per_day=0.0)
        return replace(obs, probes_per_day=0.0)

    # ------------------------------------------------------------------
    # The re-plan decision
    # ------------------------------------------------------------------

    def decide(
        self,
        replica: "ShardReplica",
        day: int,
        current: Design,
        obs: ShardObservation,
    ) -> RetuneDecision | None:
        """Return a switch decision for ``replica``, or ``None`` to hold.

        Abstains during observation warm-up, during the replica's
        cooldown, when no challenger beats the incumbent by the
        hysteresis margin, or when the workload window saw no traffic.
        """
        if obs.days < self.config.observe_days:
            return None
        if obs.probes_per_day == 0.0 and obs.scans_per_day == 0.0:
            return None
        last = self._last_retune.get(replica)
        if last is not None and day - last < self.config.cooldown_days:
            return None
        incumbent_s = self.predict(current, obs)
        charge = self.switch_charge_s
        best: Design | None = None
        best_s = incumbent_s
        for candidate in self.candidates():
            if candidate == current:
                continue
            cost = self.predict(candidate, obs) + charge
            if cost < best_s:
                best, best_s = candidate, cost
        if best is None:
            return None
        if best_s >= incumbent_s * (1.0 - HYSTERESIS):
            return None
        self._last_retune[replica] = day
        return RetuneDecision(
            shard_id=replica.shard_id,
            replica_id=replica.replica_id,
            day=day,
            current=current,
            target=best,
            predicted_current_s=incumbent_s,
            predicted_target_s=best_s,
            switch_charge_s=charge,
        )

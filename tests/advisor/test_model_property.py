"""Property: the model's ranking tracks the simulator's measurements.

The advisor is only as good as its cost model's *ordering* — it never
needs exact seconds, but the design it ranks best must not be far from
the design the simulator would actually measure best.  Hypothesis draws
probe/scan mixes; for each we rank candidates with the calibrated
planner, then run every candidate through the real measured simulator
and require the model's pick to cost within :data:`TOLERANCE` of the
true optimum.

The tolerance is 35%: the model prices the *steady-state analytic cycle*
(Section 5) while the simulator charges actual seeks, bucket growth and
shadow copies day by day, and the worst observed divergence across the
full mix grid is ~26% (a near-tie between REINDEX+ and WATA* under a
light mixed load).  A model pick costing >35% over optimum would mean
the ranking, not just the estimate, has drifted.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advisor import (
    AdvisorConfig,
    CostModelPlanner,
    Design,
    calibrate_parameters,
)
from repro.advisor.observer import ShardObservation
from repro.core.schemes import scheme_by_name
from repro.index.config import IndexConfig
from repro.sim.driver import run_simulation
from repro.sim.querygen import QueryWorkload, uniform_key_picker
from tests.advisor.helpers import make_int_store

#: Model-pick cost may exceed the simulator-measured optimum by this
#: factor, never more (see module docstring for why 35%).
TOLERANCE = 1.35

WINDOW = 4
LAST = 9
DOMAIN = 16

#: A spread of the design space: thin/fat DEL, full REINDEX+, WATA*.
CANDIDATES = (
    ("DEL", 1),
    ("DEL", 2),
    ("DEL", 4),
    ("REINDEX+", 4),
    ("WATA*", 2),
)


def _store():
    return make_int_store(LAST, domain=DOMAIN, seed=3)


def _measured_cost(name, n, probes, scans, newest):
    """Ground truth: run the design on the measured simulator."""
    workload = QueryWorkload(
        probes_per_day=probes,
        scans_per_day=scans,
        scan_newest_only=newest,
        value_picker=uniform_key_picker(DOMAIN),
        seed=5,
    )
    scheme_cls = scheme_by_name(name)
    result = run_simulation(
        lambda: scheme_cls(WINDOW, n),
        _store(),
        last_day=LAST,
        queries=workload,
    )
    # Skip the start day: it builds the whole window at once and is the
    # same for every design.
    return sum(d.total_work_seconds for d in result.days[1:])


@settings(max_examples=12, deadline=None)
@given(
    probes=st.sampled_from([0, 5, 30, 120, 400]),
    scans=st.sampled_from([0, 2, 10, 40]),
    newest=st.booleans(),
)
def test_model_ranked_best_is_near_simulator_best(probes, scans, newest):
    if probes == 0 and scans == 0:
        return  # the planner abstains on zero traffic; nothing to rank
    params = calibrate_parameters(_store(), IndexConfig(), window=WINDOW)
    planner = CostModelPlanner(params, AdvisorConfig(observe_days=1))
    obs = ShardObservation(
        shard_id=0,
        days=1,
        probes_per_day=float(probes),
        scans_per_day=float(scans),
        newest_fraction=1.0 if newest else 0.0,
    )
    ranked = min(
        CANDIDATES,
        key=lambda d: planner.predict(Design(d[0], d[1], "simple_shadow"), obs),
    )
    costs = {
        d: _measured_cost(d[0], d[1], probes, scans, newest)
        for d in CANDIDATES
    }
    optimum = min(costs.values())
    assert costs[ranked] <= optimum * TOLERANCE, (
        f"model picked {ranked} at {costs[ranked]:.3f}s but the simulator "
        f"optimum is {optimum:.3f}s (> {TOLERANCE}x off) for "
        f"probes={probes} scans={scans} newest={newest}"
    )

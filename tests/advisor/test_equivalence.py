"""Advisor-off defaults and divergent routing preserve every answer.

Two regression guarantees, checked by running twins rather than by
inspecting code:

* ``ClusterConfig()`` still defaults to ``advisor=None``, and an
  advisor-off cluster is bit-identical to the serialized driver at
  ``k=1`` — the equivalence the pre-advisor suites pinned, re-asserted
  here against the wired-up simulation.
* Divergent replicas answer bit-identically to an advisor-off uniform
  cluster: per-replica designs change the *price* of an answer, never
  its content, whichever twin the router picks.
"""

from repro.advisor import AdvisorConfig
from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    run_cluster_simulation,
)
from repro.core.schemes import scheme_by_name
from repro.sim.driver import run_simulation
from repro.sim.querygen import QueryWorkload, uniform_key_picker
from tests.advisor.helpers import make_int_store

WINDOW = 6
LAST = WINDOW + 8
DOMAIN = 16


def _workload(seed=5):
    return QueryWorkload(
        probes_per_day=40,
        scans_per_day=10,
        value_picker=uniform_key_picker(DOMAIN),
        seed=seed,
    )


def _canon(sim):
    lo = LAST - WINDOW + 1
    probes = [(v, lo, LAST) for v in range(1, DOMAIN + 1)]
    scans = [(lo, LAST), (LAST, LAST), (lo + 1, LAST - 1)]
    out = []
    for r in sim.coordinator.probe_many(probes).results:
        out.append((sorted(r.entries), sorted(r.missing_days)))
    for r in sim.coordinator.scan_many(scans).results:
        out.append(
            (sorted(r.entries), sorted(r.covered_days), sorted(r.missing_days))
        )
    return out


class TestAdvisorOffDefaults:
    def test_default_config_has_no_advisor(self):
        assert ClusterConfig().advisor is None

    def test_advisor_off_cluster_still_equals_serialized_driver(self):
        scheme_cls = scheme_by_name("DEL")
        serialized = run_simulation(
            lambda: scheme_cls(WINDOW, 3),
            make_int_store(LAST, domain=DOMAIN),
            last_day=LAST,
            queries=_workload(),
        )
        cluster = run_cluster_simulation(
            lambda: scheme_cls(WINDOW, 3),
            make_int_store(LAST, domain=DOMAIN),
            last_day=LAST,
            queries=_workload(),
            cluster=ClusterConfig(
                n_shards=1, replication=1, maintenance="lockstep"
            ),
        )
        assert cluster.shard_results[0] == serialized

    def test_advisor_none_runs_no_observation_machinery(self):
        scheme_cls = scheme_by_name("DEL")
        sim = ClusterSimulation(
            lambda: scheme_cls(WINDOW, 3),
            make_int_store(LAST, domain=DOMAIN),
            queries=_workload(),
            cluster=ClusterConfig(
                n_shards=1, replication=1, maintenance="lockstep"
            ),
        )
        sim.run(LAST)
        assert sim.changes == [] and sim.staged.journals == []
        assert sim.router is None
        assert all(shard.traffic is None for shard in sim.shards)
        advisor_counters = [
            name
            for name in sim.obs.counters()
            if name.startswith("advisor.") or ".advisor." in name
        ]
        assert advisor_counters == []
        assert all(d.retunes == 0 for d in sim.result.days)
        assert all(d.designs is None for d in sim.result.days)


class TestDivergentBitIdentity:
    def _run(self, advisor):
        scheme_cls = scheme_by_name("DEL")
        sim = ClusterSimulation(
            lambda: scheme_cls(WINDOW, 3),
            make_int_store(LAST, domain=DOMAIN, per_day=32),
            queries=QueryWorkload(
                probes_per_day=60,
                scans_per_day=40,
                scan_newest_only=True,
                value_picker=uniform_key_picker(DOMAIN),
                seed=5,
            ),
            cluster=ClusterConfig(
                n_shards=1,
                replication=2,
                maintenance="lockstep",
                advisor=advisor,
            ),
        )
        sim.run(LAST)
        return sim

    def test_divergent_answers_match_the_uniform_twin(self):
        tuned = self._run(
            AdvisorConfig(
                observe_days=1,
                cooldown_days=30,
                amortization_days=30,
                divergent=True,
            )
        )
        frozen = self._run(None)
        # The runs genuinely diverged in design...
        assert sum(d.retunes for d in tuned.result.days) >= 1
        # ...yet every canonicalized answer is identical.
        assert _canon(tuned) == _canon(frozen)

    def test_divergent_twins_really_hold_different_designs(self):
        tuned = self._run(
            AdvisorConfig(
                observe_days=1,
                cooldown_days=30,
                amortization_days=30,
                divergent=True,
            )
        )
        designs = tuned.result.days[-1].designs
        assert designs is not None
        assert len(set(designs.values())) >= 2

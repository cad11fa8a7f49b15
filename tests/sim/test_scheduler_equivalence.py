"""Serialized equivalence of the day loop's one-device configuration.

:func:`run_simulation` is the cluster's day loop with one shard, one
replica on one device, lockstep maintenance: the overlap benchmark's
serialized mode.  It must reproduce the serialized driver it replaced
(kept as ``tests/reference/serialized.py``) *exactly* — same phase
seconds, same query seconds, same space, same I/O counters — for every
scheme and technique.  This is the invariant that makes the overlap
benchmark's serialized/overlapped comparison a controlled experiment
rather than two different simulators.
"""

import pytest

from repro.cluster import ClusterConfig, run_cluster_simulation
from repro.core.schemes import scheme_by_name
from repro.index.updates import UpdateTechnique
from repro.sim.driver import run_simulation
from repro.sim.querygen import QueryWorkload
from repro.sim.scheduler import OverlapPolicy
from tests.conftest import make_store
from tests.reference.serialized import Simulation

ALL_CLI_SCHEMES = (
    "DEL",
    "REINDEX",
    "REINDEX+",
    "REINDEX++",
    "WATA*",
    "RATA*",
    "WATA(table4)",
)


def _workload() -> QueryWorkload:
    return QueryWorkload(
        probes_per_day=5,
        scans_per_day=2,
        value_picker=lambda rng: rng.choice("abcdefgh"),
        seed=3,
    )


def _reference(scheme, last, **kwargs):
    return Simulation(scheme, make_store(last), **kwargs).run(last)


class TestSerializedEquivalence:
    @pytest.mark.parametrize("name", ALL_CLI_SCHEMES)
    def test_every_scheme_reproduces_serialized_result(self, name):
        W, n, last = 10, 4, 16
        scheme_cls = scheme_by_name(name)
        serialized = _reference(scheme_cls(W, n), last, queries=_workload())
        result = run_simulation(
            lambda: scheme_cls(W, n),
            make_store(last),
            last_day=last,
            queries=_workload(),
        )
        assert result == serialized

    @pytest.mark.parametrize(
        "technique",
        [
            UpdateTechnique.IN_PLACE,
            UpdateTechnique.SIMPLE_SHADOW,
            UpdateTechnique.PACKED_SHADOW,
        ],
    )
    def test_equivalence_holds_per_technique(self, technique):
        W, n, last = 8, 2, 13
        scheme_cls = scheme_by_name("DEL")
        serialized = _reference(
            scheme_cls(W, n), last, technique=technique, queries=_workload()
        )
        result = run_simulation(
            lambda: scheme_cls(W, n),
            make_store(last),
            last_day=last,
            technique=technique,
            queries=_workload(),
        )
        assert result == serialized

    def test_equivalence_without_queries(self):
        W, n, last = 8, 3, 12
        scheme_cls = scheme_by_name("REINDEX+")
        serialized = _reference(scheme_cls(W, n), last)
        result = run_simulation(
            lambda: scheme_cls(W, n), make_store(last), last_day=last
        )
        assert result == serialized

    def test_degrade_policy_on_one_device_also_matches(self):
        # With a single device nothing is ever offline under shadowing,
        # so even the degrade policy cannot diverge from serialized.
        W, n, last = 8, 2, 12
        scheme_cls = scheme_by_name("REINDEX")
        serialized = _reference(scheme_cls(W, n), last, queries=_workload())
        result = run_cluster_simulation(
            lambda: scheme_cls(W, n),
            make_store(last),
            last_day=last,
            queries=_workload(),
            cluster=ClusterConfig(
                n_shards=1,
                maintenance="lockstep",
                policy=OverlapPolicy.DEGRADE,
            ),
        )
        assert result.shard_results[0] == serialized

    def test_serialized_default_is_untouched_by_scheduler_import(self):
        # run_simulation is exactly the one-shard, one-device cluster.
        W, n, last = 6, 2, 9
        result = run_simulation(
            lambda: scheme_by_name("DEL")(W, n),
            make_store(last),
            last_day=last,
            queries=_workload(),
        )
        cluster = run_cluster_simulation(
            lambda: scheme_by_name("DEL")(W, n),
            make_store(last),
            last_day=last,
            queries=_workload(),
            cluster=ClusterConfig(n_shards=1, maintenance="lockstep"),
        )
        assert result == cluster.shard_results[0]

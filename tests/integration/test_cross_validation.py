"""Cross-validation: the analytic model against the measured substrate.

Absolute numbers differ (Table-12 constants describe 1997 Netnews volumes;
the measured substrate runs small synthetic days), but the *structure* must
agree — per-phase cost composition, relative scheme ordering, and space
behaviour — because both paths execute identical plans.
"""

import pytest

from repro.analysis.costing import AnalyticExecutor
from repro.analysis.parameters import (
    ApplicationParameters,
    CostParameters,
    HardwareParameters,
    ImplementationParameters,
)
from repro.core.schemes import ALL_SCHEMES, DelScheme, ReindexScheme
from repro.index.config import IndexConfig
from repro.index.updates import UpdateTechnique
from repro.sim.driver import run_simulation
from repro.workloads.text import TextWorkloadConfig, build_store

WINDOW, N, LAST = 6, 2, 24


@pytest.fixture(scope="module")
def store():
    return build_store(
        LAST,
        TextWorkloadConfig(docs_per_day=15, words_per_doc=10, vocabulary=120, seed=33),
    )


def calibrated_params(store) -> CostParameters:
    """Measure Build/Add/S' on the substrate so the analytic model speaks
    the same units as the simulation."""
    from repro.index.builder import build_packed_index
    from repro.storage.disk import SimulatedDisk

    disk = SimulatedDisk()
    config = IndexConfig()
    before = disk.clock
    idx = build_packed_index(
        disk,
        config,
        store.grouped_for([1]),
        [1],
        source_bytes=store.data_bytes_for([1]),
    )
    build_s = disk.clock - before
    s_bytes = idx.allocated_bytes
    before = disk.clock
    idx.insert_postings(store.grouped_for([2]), [2])
    add_s = disk.clock - before
    s_prime = idx.allocated_bytes / 2
    return CostParameters(
        name="calibrated",
        window=WINDOW,
        hardware=HardwareParameters(),
        application=ApplicationParameters(s_bytes=max(s_bytes, 1)),
        implementation=ImplementationParameters(
            g=2.0,
            build_s=build_s,
            add_s=add_s,
            del_s=add_s,
            s_prime_bytes=max(s_prime, 1),
        ),
    )


def measured_average(store, scheme_cls, technique):
    result = run_simulation(
        lambda: scheme_cls(WINDOW, N), store, last_day=LAST, technique=technique
    )
    days = result.steady_days(warmup=WINDOW)
    n = len(days)
    return (
        sum(d.seconds.transition for d in days) / n,
        sum(d.seconds.precomputation for d in days) / n,
        sum(d.steady_bytes for d in days) / n,
    )


def analytic_average(store, scheme_cls, technique, params):
    executor = AnalyticExecutor(scheme_cls(WINDOW, N), params, technique)
    reports = executor.run(LAST)
    days = reports[1 + WINDOW :]
    n = len(days)
    return (
        sum(r.seconds.transition for r in days) / n,
        sum(r.seconds.precomputation for r in days) / n,
        sum(r.steady_bytes for r in days) / n,
    )


class TestAnalyticVsMeasured:
    @pytest.mark.parametrize(
        "scheme_cls",
        [c for c in ALL_SCHEMES if c.min_indexes <= N],
        ids=lambda c: c.name,
    )
    def test_transition_times_within_small_factor(self, store, scheme_cls):
        """Calibrated analytic transitions land near measured ones.

        At this tiny test scale seeks dominate transfers, so per-day
        constants calibrated from single-day measurements over-amortise
        (e.g. Build of a 3-day cluster is cheaper than 3x Build of one
        day); a 3x envelope still catches structural bugs while tolerating
        that, and the paper-scale constants are exercised elsewhere.
        """
        params = calibrated_params(store)
        technique = UpdateTechnique.SIMPLE_SHADOW
        measured_t, _, _ = measured_average(store, scheme_cls, technique)
        analytic_t, _, _ = analytic_average(store, scheme_cls, technique, params)
        assert measured_t / 3 < analytic_t < measured_t * 3, (
            f"analytic {analytic_t} vs measured {measured_t}"
        )

    def test_scheme_ordering_preserved_for_transition_time(self, store):
        """REINDEX transitions cost more than DEL's at n=2, both ways."""
        technique = UpdateTechnique.SIMPLE_SHADOW
        params = calibrated_params(store)
        m_del, _, _ = measured_average(store, DelScheme, technique)
        m_re, _, _ = measured_average(store, ReindexScheme, technique)
        a_del, _, _ = analytic_average(store, DelScheme, technique, params)
        a_re, _, _ = analytic_average(store, ReindexScheme, technique, params)
        assert (m_re > m_del) == (a_re > a_del)

    def test_space_ordering_preserved(self, store):
        """REINDEX (packed) occupies less steady space than DEL (unpacked)."""
        technique = UpdateTechnique.SIMPLE_SHADOW
        params = calibrated_params(store)
        _, _, m_del = measured_average(store, DelScheme, technique)
        _, _, m_re = measured_average(store, ReindexScheme, technique)
        _, _, a_del = analytic_average(store, DelScheme, technique, params)
        _, _, a_re = analytic_average(store, ReindexScheme, technique, params)
        assert m_re < m_del
        assert a_re < a_del

"""The SCAM case study (Figures 3, 4, 5, 9, 10).

SCAM indexes a week of Netnews articles for copy detection: ~100 author
queries a day, each performing ~100 timed probes over the whole window
(``Probe_num = 100,000``), plus ~10 registration-check scans over the
current day's index.  Table 12 supplies the measured constants; the paper
reports all SCAM results under simple shadowing.

Figure 10 comes in two flavours (see DESIGN.md):

* :func:`figure10_scale_factor` — the analytic version, scaling every
  data-proportional Table-12 constant linearly with SF.
* :func:`figure10_measured` — the substrate-measured version: ``Build`` and
  ``Add`` are re-measured on our simulated index at each SF (with a
  Heaps-law vocabulary, so bigger days have more distinct words), which is
  how the authors obtained their SF-dependent constants.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.parameters import SCAM_PARAMETERS, CostParameters
from ..index.updates import UpdateTechnique
from .common import curves_over_n, curves_over_params

#: The n axis the paper plots for W = 7.
DEFAULT_N_VALUES: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)


def figure3_space(
    n_values: Sequence[int] = DEFAULT_N_VALUES,
    params: CostParameters = SCAM_PARAMETERS,
) -> dict[str, list[float | None]]:
    """Figure 3: average space (operation + transition overhead) vs ``n``."""
    return curves_over_n(
        params, n_values, UpdateTechnique.SIMPLE_SHADOW, "space"
    )


def figure4_transition(
    n_values: Sequence[int] = DEFAULT_N_VALUES,
    params: CostParameters = SCAM_PARAMETERS,
) -> dict[str, list[float | None]]:
    """Figure 4: average transition time (seconds) vs ``n``."""
    return curves_over_n(
        params, n_values, UpdateTechnique.SIMPLE_SHADOW, "transition"
    )


def figure5_work(
    n_values: Sequence[int] = DEFAULT_N_VALUES,
    params: CostParameters = SCAM_PARAMETERS,
) -> dict[str, list[float | None]]:
    """Figure 5: average total daily work (seconds) vs ``n``."""
    return curves_over_n(params, n_values, UpdateTechnique.SIMPLE_SHADOW, "work")


def figure9_window_scaling(
    windows: Sequence[int] = (4, 7, 14, 21, 28, 35, 42),
    n_indexes: int = 4,
    params: CostParameters = SCAM_PARAMETERS,
) -> dict[str, list[float | None]]:
    """Figure 9: total daily work vs window size ``W`` at ``n = 4``.

    The reindexing family grows O(W/n) while DEL/WATA/RATA stay flat.
    """
    params_list = [params.with_window(w) for w in windows]
    return curves_over_params(
        params_list,
        list(windows),
        n_indexes,
        UpdateTechnique.SIMPLE_SHADOW,
        "work",
    )


def figure10_scale_factor(
    scale_factors: Sequence[float] = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0),
    window: int = 14,
    n_indexes: int = 4,
    params: CostParameters = SCAM_PARAMETERS,
) -> dict[str, list[float | None]]:
    """Figure 10 (analytic): total daily work vs data scale factor.

    All data-proportional constants scale linearly; under this model the
    Add/Build ratio is SF-invariant, so the paper's REINDEX-overtakes-WATA
    crossover (driven by their re-measured, memory-pressured ``Add``) does
    not appear here — see :func:`figure10_measured` and EXPERIMENTS.md.
    """
    base = params.with_window(window)
    params_list = [base.scaled(sf) for sf in scale_factors]
    return curves_over_params(
        params_list,
        list(scale_factors),
        n_indexes,
        UpdateTechnique.SIMPLE_SHADOW,
        "work",
    )


def figure10_memory_pressured(
    scale_factors: Sequence[float] = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0),
    window: int = 14,
    n_indexes: int = 4,
    params: CostParameters = SCAM_PARAMETERS,
    *,
    memory_ratio: float = 1.0,
) -> dict[str, list[float | None]]:
    """Figure 10 (memory-pressured): re-measured constants under a fixed
    buffer pool.

    The authors' ``Add`` degraded super-linearly because their 96 MB
    machine could not cache the index it was randomly updating.  Here the
    pool is sized to ``memory_ratio`` times the SF = 1 cluster index, so the
    measured ``Add`` (random bucket updates) pays progressively more seeks
    as SF grows while ``Build`` (streaming) scales linearly — the mechanism
    behind the paper's REINDEX-overtakes crossover.  See EXPERIMENTS.md.
    """
    import math
    from dataclasses import replace

    if memory_ratio <= 0:
        raise ValueError(f"memory_ratio must be > 0, got {memory_ratio}")
    base = params.with_window(window)
    cluster = math.ceil(window / n_indexes)

    # Size the pool from the SF = 1 working set (cluster + the new day).
    _, _, sp1_per_day = measure_build_add_constants(1.0, cluster_days=cluster)
    memory = memory_ratio * sp1_per_day * (cluster + 1)

    build1, add1, sp1 = measure_build_add_constants(
        1.0, cluster_days=cluster, memory_bytes=memory
    )
    params_list = []
    for sf in scale_factors:
        build, add, sp = measure_build_add_constants(
            sf, cluster_days=cluster, memory_bytes=memory
        )
        impl = replace(
            base.implementation,
            build_s=base.implementation.build_s * (build / build1),
            add_s=base.implementation.add_s * (add / add1),
            del_s=base.implementation.del_s * (add / add1),
            s_prime_bytes=base.implementation.s_prime_bytes * (sp / sp1),
        )
        app = replace(
            base.application,
            s_bytes=base.application.s_bytes * sf,
            c_bytes=base.application.c_bytes * sf,
        )
        params_list.append(replace(base, implementation=impl, application=app))
    return curves_over_params(
        params_list,
        list(scale_factors),
        n_indexes,
        UpdateTechnique.SIMPLE_SHADOW,
        "work",
    )


def measure_build_add_constants(
    scale_factor: float,
    *,
    base_docs_per_day: int = 120,
    words_per_doc: int = 40,
    seed: int = 42,
    cluster_days: int = 1,
    memory_bytes: float | None = None,
) -> tuple[float, float, float]:
    """Measure ``Build``, ``Add``, and ``S'`` on the simulated substrate.

    Replicates the authors' calibration procedure at a given scale factor:
    build a packed index over ``cluster_days`` days (``Build`` per day),
    incrementally add the next day (``Add``), and read off the resulting
    unpacked size per day (``S'``).  The vocabulary follows Heaps' law in
    the daily volume, so scaling is not perfectly linear — the point of
    Figure 10's measured variant.

    Args:
        cluster_days: Size of the index the incremental day lands in — use
            ``ceil(W/n)`` to measure the Add a DEL-family scheme actually
            performs.
        memory_bytes: If given, updates run under a
            :class:`~repro.storage.BufferPoolModel` of this size, so the
            measured ``Add`` degrades once the index outgrows memory (the
            authors' 96 MB DEC 3000 in miniature).

    Returns:
        ``(build_seconds, add_seconds, s_prime_bytes)`` per day.
    """
    from ..core.records import RecordStore
    from ..index.builder import build_index_from_store
    from ..index.config import IndexConfig
    from ..storage.bufferpool import BufferPoolModel
    from ..storage.disk import SimulatedDisk
    from ..workloads.text import NetnewsGenerator, TextWorkloadConfig
    from ..workloads.zipf import heaps_vocabulary

    if cluster_days < 1:
        raise ValueError(f"cluster_days must be >= 1, got {cluster_days}")
    docs = max(1, int(base_docs_per_day * scale_factor))
    tokens = docs * words_per_doc
    config = TextWorkloadConfig(
        docs_per_day=docs,
        words_per_doc=words_per_doc,
        vocabulary=heaps_vocabulary(tokens),
        seed=seed,
    )
    store = RecordStore()
    NetnewsGenerator(config).populate(store, 1, cluster_days + 1)

    pool = BufferPoolModel(memory_bytes) if memory_bytes else None
    disk = SimulatedDisk(buffer_pool=pool)
    index_config = IndexConfig()

    cluster = list(range(1, cluster_days + 1))
    before = disk.clock
    packed = build_index_from_store(disk, index_config, store, cluster)
    build_s = (disk.clock - before) / cluster_days

    before = disk.clock
    packed.insert_postings(store.grouped_for([cluster_days + 1]), [cluster_days + 1])
    add_s = disk.clock - before
    s_prime = packed.allocated_bytes / (cluster_days + 1)

    return build_s, add_s, s_prime


def figure10_measured(
    scale_factors: Sequence[float] = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0),
    window: int = 14,
    n_indexes: int = 4,
    params: CostParameters = SCAM_PARAMETERS,
) -> dict[str, list[float | None]]:
    """Figure 10 (measured): work vs SF with substrate-calibrated constants.

    ``Build``/``Add``/``S'`` are re-measured at each SF (normalised so that
    SF = 1 matches Table 12), then fed into the same work model.
    """
    from dataclasses import replace

    base = params.with_window(window)
    build1, add1, sp1 = measure_build_add_constants(1.0)
    params_list = []
    for sf in scale_factors:
        build, add, sp = measure_build_add_constants(sf)
        impl = replace(
            base.implementation,
            build_s=base.implementation.build_s * (build / build1),
            add_s=base.implementation.add_s * (add / add1),
            del_s=base.implementation.del_s * (add / add1),
            s_prime_bytes=base.implementation.s_prime_bytes * (sp / sp1),
        )
        app = replace(
            base.application,
            s_bytes=base.application.s_bytes * sf,
            c_bytes=base.application.c_bytes * sf,
        )
        params_list.append(replace(base, implementation=impl, application=app))
    return curves_over_params(
        params_list,
        list(scale_factors),
        n_indexes,
        UpdateTechnique.SIMPLE_SHADOW,
        "work",
    )

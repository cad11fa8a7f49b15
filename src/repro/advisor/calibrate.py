"""Calibrate the analytic cost model against the live substrate.

The Table 12 constants describe the paper's 1997 workloads; an advisor
steering *this* cluster needs constants measured from *its* record store
and index configuration, or the model's ranking would drift from what
the simulator actually charges.  This mirrors the authors' procedure
(see ``measure_build_add_constants`` in :mod:`repro.casestudies.scam`)
on a scratch device: build a packed index over a few real days (→
``Build``, ``S``), incrementally add the next day (→ ``Add``, ``S'``),
and read the per-day bucket size (→ ``c``) from the store itself.
Hardware constants are the substrate defaults (Table 12's disk), which
the simulated devices share.
"""

from __future__ import annotations

from ..analysis.parameters import (
    ApplicationParameters,
    CostParameters,
    HardwareParameters,
    ImplementationParameters,
)
from ..core.records import RecordStore
from ..index.builder import build_index_from_store
from ..index.config import IndexConfig
from ..storage.disk import SimulatedDisk

#: Days sampled for the scratch build (kept small: calibration is run
#: once per simulation, on a throwaway device).
SAMPLE_DAYS = 3


def calibrate_parameters(
    store: RecordStore,
    config: IndexConfig,
    *,
    window: int,
    name: str = "calibrated",
    sample_days: int = SAMPLE_DAYS,
) -> CostParameters:
    """Return :class:`CostParameters` measured from ``store``.

    The probe/scan mix is left zeroed — the planner overlays the observed
    workload per shard via ``with_overrides`` — so the result carries the
    *substrate* half of the model: sizes and maintenance constants.

    Args:
        store: The record store the cluster serves (days must start at 1).
        config: The index configuration the cluster's waves use.
        window: The cluster's window ``W``.
        sample_days: Days built on the scratch device; clamped to leave
            one day for the incremental-add measurement when possible.
    """
    days = store.days
    if not days:
        raise ValueError("cannot calibrate from an empty record store")
    if sample_days < 1:
        raise ValueError(f"sample_days must be >= 1, got {sample_days}")
    sample = days[: min(sample_days, len(days))]
    if len(days) > len(sample):
        add_day = days[len(sample)]
    else:
        # Too few days to hold one back: reuse the last built day's data
        # as the incremental batch (slightly optimistic Add, still the
        # right order of magnitude).
        add_day = sample[-1]

    scratch = SimulatedDisk()
    before = scratch.clock
    packed = build_index_from_store(scratch, config, store, sample)
    build_s = (scratch.clock - before) / len(sample)
    s_bytes = packed.allocated_bytes / len(sample)

    # Measured before the insert below mutates ``packed`` and lets the
    # sample's posting runs go.
    grouped = store.grouped_for(sample)
    distinct = max(1, len(grouped))
    entry_bytes = config.bytes_for(sum(len(e) for e in grouped.values()))
    c_bytes = entry_bytes / (len(sample) * distinct)

    before = scratch.clock
    packed.insert_postings(store.grouped_for([add_day]), [add_day])
    add_s = scratch.clock - before
    s_prime = packed.allocated_bytes / (len(sample) + 1)

    return CostParameters(
        name=name,
        window=window,
        hardware=HardwareParameters(),
        application=ApplicationParameters(
            s_bytes=max(1.0, s_bytes),
            c_bytes=max(1.0, c_bytes),
            probe_num=0.0,
            scan_num=0.0,
            scan_target="all",
        ),
        implementation=ImplementationParameters(
            g=max(config.contiguous.growth_factor, 1.0 + 1e-9),
            build_s=build_s,
            add_s=add_s,
            del_s=add_s,
            s_prime_bytes=max(1.0, s_prime),
        ),
    )

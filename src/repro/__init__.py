"""Wave-Indices: sliding-window index maintenance.

Reproduction of Shivakumar & Garcia-Molina, *Wave-Indices: Indexing
Evolving Databases* (SIGMOD 1997).  A wave index keeps a window of the last
``W`` days of data searchable by spreading it over ``n`` conventional
indexes; this package implements the paper's six maintenance schemes, three
update techniques, analytic cost model, and case studies — on a simulated
storage substrate.

Quickstart::

    from repro import (DelScheme, PlanExecutor, RecordStore, Record,
                       SimulatedDisk, WaveIndex, IndexConfig, UpdateTechnique)

    store = RecordStore()
    for day in range(1, 11):
        store.add_records(day, [Record(day * 10, day, ("alice", "bob"))])

    disk = SimulatedDisk()
    wave = WaveIndex(disk, IndexConfig(), n_indexes=2)
    executor = PlanExecutor(wave, store, UpdateTechnique.SIMPLE_SHADOW)
    scheme = DelScheme(window=10, n_indexes=2)
    executor.execute(scheme.start_ops())
    executor.execute(scheme.transition_ops(11))

    hits = wave.timed_index_probe("alice", 2, 11)

See ``examples/`` for complete scenarios and ``DESIGN.md`` for the map from
the paper's tables/figures to modules and benchmarks.
"""

from .analysis import (
    ApplicationParameters,
    CostParameters,
    DailyAverages,
    HardwareParameters,
    ImplementationParameters,
    SCAM_PARAMETERS,
    TABLE12,
    TPCD_PARAMETERS,
    WSE_PARAMETERS,
    steady_state,
)
from .core import (
    ALL_SCHEMES,
    DayBatch,
    DelScheme,
    HARD_WINDOW_SCHEMES,
    PlanExecutor,
    ProbeResult,
    RataStarScheme,
    Record,
    RecordStore,
    ReindexPlusPlusScheme,
    ReindexPlusScheme,
    ReindexScheme,
    ScanResult,
    WataStarScheme,
    WataTable4Scheme,
    WaveIndex,
    WaveScheme,
    format_trace,
    scheme_by_name,
    trace_scheme,
)
from .core.advisor import Recommendation, recommend
from .index import (
    BPlusTreeDirectory,
    ConstituentIndex,
    ContiguousPolicy,
    Entry,
    HashDirectory,
    IndexConfig,
    UpdateTechnique,
)
from .sim import QueryWorkload, SimulationResult, run_simulation
from .storage import BufferPoolModel, DiskParameters, SimulatedDisk

__version__ = "1.0.0"

__all__ = [
    "ALL_SCHEMES",
    "ApplicationParameters",
    "BPlusTreeDirectory",
    "BufferPoolModel",
    "ConstituentIndex",
    "ContiguousPolicy",
    "CostParameters",
    "DailyAverages",
    "DayBatch",
    "DelScheme",
    "DiskParameters",
    "Entry",
    "HARD_WINDOW_SCHEMES",
    "HardwareParameters",
    "HashDirectory",
    "ImplementationParameters",
    "IndexConfig",
    "PlanExecutor",
    "ProbeResult",
    "QueryWorkload",
    "RataStarScheme",
    "Recommendation",
    "Record",
    "RecordStore",
    "ReindexPlusPlusScheme",
    "ReindexPlusScheme",
    "ReindexScheme",
    "SCAM_PARAMETERS",
    "ScanResult",
    "SimulatedDisk",
    "SimulationResult",
    "TABLE12",
    "TPCD_PARAMETERS",
    "UpdateTechnique",
    "WSE_PARAMETERS",
    "WataStarScheme",
    "WataTable4Scheme",
    "WaveIndex",
    "WaveScheme",
    "format_trace",
    "recommend",
    "run_simulation",
    "scheme_by_name",
    "steady_state",
    "trace_scheme",
    "__version__",
]

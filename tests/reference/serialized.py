"""The serialized driver: one scheme, one disk, maintenance then queries.

How a day was run before the cluster's day loop became the only one: the
scheme's plan through :meth:`PlanExecutor.execute`, then the day's query
stream through :meth:`QueryWorkload.run_day`, back to back on one
:class:`SimulatedDisk`.  Kept word for word as the oracle the ``k = 1,
r = 1`` lockstep cluster must equal on every :class:`DayMetrics` and on
every answer (``tests/cluster/test_cluster_equivalence.py``).
"""

from repro.core.executor import PlanExecutor
from repro.core.wave import WaveIndex
from repro.errors import SchemeError
from repro.index.config import IndexConfig
from repro.index.updates import UpdateTechnique
from repro.sim.metrics import DayMetrics, SimulationResult
from repro.storage.disk import SimulatedDisk


class Simulation:
    """Day-by-day measured run of one scheme on one record store."""

    def __init__(
        self,
        scheme,
        store,
        technique=UpdateTechnique.SIMPLE_SHADOW,
        index_config=None,
        disk_params=None,
        queries=None,
        buffer_pool=None,
        page_cache=None,
    ):
        self.scheme = scheme
        self.store = store
        self.disk = SimulatedDisk(disk_params, buffer_pool, page_cache)
        self.wave = WaveIndex(
            self.disk, index_config or IndexConfig(), scheme.n_indexes
        )
        self.executor = PlanExecutor(self.wave, store, technique)
        self.queries = queries
        self.result = SimulationResult(
            window=scheme.window,
            n_indexes=scheme.n_indexes,
            scheme_name=scheme.name,
            technique=technique.value,
        )
        self._started = False

    def run_start(self):
        if self._started:
            raise SchemeError("simulation already started")
        self._started = True
        return self._run_day(self.scheme.window, self.scheme.start_ops())

    def run_transition(self, day):
        if not self._started:
            raise SchemeError("call run_start() first")
        return self._run_day(day, self.scheme.transition_ops(day))

    def run(self, last_day):
        self.run_start()
        for day in range(self.scheme.window + 1, last_day + 1):
            self.run_transition(day)
        return self.result

    def _run_day(self, day, plan):
        io_before = self.disk.stats.snapshot()
        cache = self.disk.page_cache
        cache_before = cache.snapshot() if cache is not None else None
        report = self.executor.execute(plan)
        query_seconds = 0.0
        if self.queries is not None:
            query_seconds = self.queries.run_day(
                self.wave, day, self.scheme.window
            )
        metrics = DayMetrics(
            day=day,
            seconds=report.seconds,
            query_seconds=query_seconds,
            steady_bytes=self.disk.live_bytes,
            constituent_bytes=self.wave.constituent_bytes,
            peak_bytes=report.peak_bytes,
            length_days=self.wave.total_length_days,
            covered_days=frozenset(self.wave.covered_days()),
            io=self.disk.stats.snapshot() - io_before,
            cache=cache.snapshot() - cache_before if cache is not None else None,
        )
        self.result.days.append(metrics)
        return metrics

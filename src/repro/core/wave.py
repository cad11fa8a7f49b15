"""The wave index: a set of constituent indexes covering a window of days.

A :class:`WaveIndex` owns the name -> index bindings that the maintenance
schemes manipulate.  Bindings split into *constituents* (``I1`` .. ``In``,
the queryable members of Θ) and *temporaries* (``Temp``, ``T0`` ... — the
staging indexes of REINDEX+/REINDEX++/RATA*, invisible to queries).

Queries implement Section 2.2: a ``TimedIndexProbe``/``TimedSegmentScan``
touches only the constituents whose time-sets intersect the requested range
and filters retrieved entries by their insert-day timestamps (WATA's soft
windows can hold expired days, which timestamp filtering hides).
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from ..errors import DegradedWindowError, FaultError, WaveIndexError
from ..index import kernels
from ..index.config import IndexConfig
from ..index.constituent import ConstituentIndex
from ..index.entry import Entry
from ..storage.disk import SimulatedDisk
from .queries import (
    BatchCostSummary,
    BatchProbeResult,
    BatchScanResult,
    ProbeResult,
    ScanResult,
)

#: Sentinel range bounds for the untimed query forms.
NEG_INF = -(10**9)
POS_INF = 10**9


def constituent_names(n_indexes: int) -> list[str]:
    """Return the standard constituent names ``I1`` .. ``In``."""
    return [f"I{i}" for i in range(1, n_indexes + 1)]


class WaveIndex:
    """A collection of named constituent indexes over a sliding window.

    Args:
        disk: The simulated device all constituents live on.
        config: Index configuration (entry size, CONTIGUOUS policy,
            directory flavour).
        n_indexes: Number of constituent indexes ``n``.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        config: IndexConfig,
        n_indexes: int,
    ) -> None:
        if n_indexes < 1:
            raise WaveIndexError(f"need at least one index, got {n_indexes}")
        self.disk = disk
        self.config = config
        self.constituents = constituent_names(n_indexes)
        self._constituent_set = frozenset(self.constituents)
        self.bindings: dict[str, ConstituentIndex] = {}
        #: Constituents knocked out by a device fault.  Queries raise
        #: :class:`~repro.errors.DegradedWindowError` when one is needed,
        #: unless the caller opts into ``degraded=True`` partial answers.
        self.offline: set[str] = set()

    # ------------------------------------------------------------------
    # Binding management (used by the executor)
    # ------------------------------------------------------------------

    def is_constituent(self, name: str) -> bool:
        """Return ``True`` if ``name`` is a queryable member of Θ."""
        return name in self._constituent_set

    def get(self, name: str) -> ConstituentIndex:
        """Return the index bound to ``name``.

        Raises:
            WaveIndexError: If nothing is bound.
        """
        try:
            return self.bindings[name]
        except KeyError:
            raise WaveIndexError(f"no index bound to {name!r}") from None

    def get_optional(self, name: str) -> ConstituentIndex | None:
        """Return the binding for ``name`` or ``None``."""
        return self.bindings.get(name)

    def bind(self, name: str, index: ConstituentIndex) -> None:
        """Bind ``name`` to ``index``, dropping any previous binding.

        The old index is dropped *after* the new binding is installed, which
        is the shadow-swap order every scheme relies on.
        """
        old = self.bindings.get(name)
        index.name = name
        self.bindings[name] = index
        if old is not None and old is not index:
            old.drop()

    def unbind(self, name: str) -> ConstituentIndex:
        """Remove and return the binding for ``name`` (without dropping it)."""
        try:
            return self.bindings.pop(name)
        except KeyError:
            raise WaveIndexError(f"no index bound to {name!r}") from None

    # ------------------------------------------------------------------
    # Fault availability (degraded windows)
    # ------------------------------------------------------------------

    def mark_offline(self, name: str) -> None:
        """Declare a constituent unavailable (its device failed)."""
        if name not in self._constituent_set:
            raise WaveIndexError(f"{name!r} is not a constituent")
        self.offline.add(name)

    def mark_online(self, name: str) -> None:
        """Bring a constituent back into service (after repair/rebuild)."""
        self.offline.discard(name)

    def is_offline(self, name: str) -> bool:
        """Return ``True`` if ``name`` is currently marked offline."""
        return name in self.offline

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def live_constituents(self) -> Iterator[ConstituentIndex]:
        """Iterate the currently bound constituent indexes in I1..In order."""
        for name in self.constituents:
            index = self.bindings.get(name)
            if index is not None:
                yield index

    def covered_days(self) -> set[int]:
        """Return the union of the constituents' time-sets."""
        days: set[int] = set()
        for index in self.live_constituents():
            days.update(index.time_set)
        return days

    def days_by_name(self) -> dict[str, set[int]]:
        """Return each binding's time-set (constituents and temporaries)."""
        return {
            name: set(index.time_set) for name, index in self.bindings.items()
        }

    @property
    def constituent_bytes(self) -> int:
        """Return bytes pinned by constituent indexes."""
        return sum(i.allocated_bytes for i in self.live_constituents())

    @property
    def total_bytes(self) -> int:
        """Return bytes pinned by all bindings, temporaries included."""
        return sum(i.allocated_bytes for i in self.bindings.values())

    @property
    def total_length_days(self) -> int:
        """Return the wave index's *length*: total days in constituents.

        This is the Appendix-B measure ``length(Θ)`` = Σ|I_j|; for soft
        window schemes it can exceed the required window ``W``.
        """
        return sum(len(i.time_set) for i in self.live_constituents())

    # ------------------------------------------------------------------
    # Access operations (Section 2.2)
    # ------------------------------------------------------------------

    def _relevant_days(self, index: ConstituentIndex, t1: int, t2: int) -> set[int]:
        """Return the part of ``index``'s time-set inside ``[t1, t2]``."""
        return {d for d in index.time_set if t1 <= d <= t2}

    def _skip_offline(
        self, name: str, relevant: set[int], degraded: bool, kind: str
    ) -> None:
        """Raise unless the caller accepted a partial (degraded) answer."""
        if not degraded:
            raise DegradedWindowError(
                f"constituent {name} (days {sorted(relevant)}) is offline; "
                f"pass degraded=True to {kind} the surviving window"
            )

    def timed_index_probe(
        self, value: Any, t1: int, t2: int, *, degraded: bool = False
    ) -> ProbeResult:
        """``TimedIndexProbe(Θ, t1, t2, value)``.

        Probes each constituent whose time-set intersects ``[t1, t2]`` and
        keeps entries whose insert day falls in the range.

        With ``degraded=True``, constituents that are marked offline — or
        whose device fails during the probe — are skipped instead of
        failing the query: the result covers the surviving days and lists
        the lost ones in ``missing_days`` (the paper's availability
        argument, made operational under faults).
        """
        if t1 > t2:
            raise WaveIndexError(f"empty time range [{t1}, {t2}]")
        entries: list[Entry] = []
        seconds = 0.0
        probed = 0
        covered: set[int] = set()
        missing: set[int] = set()
        for name in self.constituents:
            index = self.bindings.get(name)
            if index is None:
                continue
            relevant = self._relevant_days(index, t1, t2)
            if not relevant:
                continue
            if name in self.offline:
                self._skip_offline(name, relevant, degraded, "probe")
                missing.update(relevant)
                continue
            try:
                found, cost = index.timed_probe(value, t1, t2)
            except FaultError:
                self.offline.add(name)
                if not degraded:
                    raise
                missing.update(relevant)
                continue
            probed += 1
            entries.extend(found)
            seconds += cost
            covered.update(relevant)
        missing -= covered
        return ProbeResult(
            tuple(entries), seconds, probed, frozenset(covered), frozenset(missing)
        )

    def index_probe(self, value: Any) -> ProbeResult:
        """``IndexProbe``: probe all constituents, no time restriction."""
        return self.timed_index_probe(value, NEG_INF, POS_INF)

    def timed_segment_scan(
        self, t1: int, t2: int, *, degraded: bool = False
    ) -> ScanResult:
        """``TimedSegmentScan(Θ, t1, t2)``.

        Scans each constituent whose time-set intersects ``[t1, t2]``; the
        whole index is transferred (packed or not) and entries outside the
        range are filtered in memory.

        ``degraded=True`` behaves as for :meth:`timed_index_probe`: offline
        or failing constituents are dropped from the answer and reported
        via ``missing_days`` instead of failing the scan.
        """
        if t1 > t2:
            raise WaveIndexError(f"empty time range [{t1}, {t2}]")
        entries: list[Entry] = []
        seconds = 0.0
        scanned = 0
        covered: set[int] = set()
        missing: set[int] = set()
        for name in self.constituents:
            index = self.bindings.get(name)
            if index is None:
                continue
            relevant = self._relevant_days(index, t1, t2)
            if not relevant:
                continue
            if name in self.offline:
                self._skip_offline(name, relevant, degraded, "scan")
                missing.update(relevant)
                continue
            try:
                found, cost = index.timed_scan(t1, t2)
            except FaultError:
                self.offline.add(name)
                if not degraded:
                    raise
                missing.update(relevant)
                continue
            scanned += 1
            entries.extend(found)
            seconds += cost
            covered.update(relevant)
        missing -= covered
        return ScanResult(
            tuple(entries), seconds, scanned, frozenset(covered), frozenset(missing)
        )

    def segment_scan(self) -> ScanResult:
        """``SegmentScan``: scan every constituent, no time restriction."""
        return self.timed_segment_scan(NEG_INF, POS_INF)

    # ------------------------------------------------------------------
    # Batched serving (amortized probes and scans)
    # ------------------------------------------------------------------

    def _begin_batch(self) -> tuple[float, float, int, int, int]:
        """Read the live counters :meth:`_finish_batch` subtracts from.

        ``(clock, seeks, bytes_read, cache hits, cache misses)``: no
        snapshot record is built on the read path.
        """
        disk = self.disk
        stats = disk.stats
        cache = disk.page_cache
        if cache is None:
            return disk.clock, stats.seeks, stats.bytes_read, 0, 0
        return disk.clock, stats.seeks, stats.bytes_read, cache.hits, cache.misses

    def _finish_batch(
        self,
        begin: tuple[float, float, int, int, int],
        *,
        requests: int,
        constituents_touched: int,
        buckets_read: int,
        duplicate_hits: int,
    ) -> BatchCostSummary:
        clock, seeks, bytes_read, hits, misses = self._begin_batch()
        clock0, seeks0, bytes_read0, hits0, misses0 = begin
        return BatchCostSummary(
            requests=requests,
            seconds=clock - clock0,
            seeks=seeks - seeks0,
            bytes_read=bytes_read - bytes_read0,
            constituents_touched=constituents_touched,
            buckets_read=buckets_read,
            duplicate_hits=duplicate_hits,
            cache_hits=hits - hits0,
            cache_misses=misses - misses0,
        )

    def probe_many(
        self,
        requests: Sequence[tuple[Any, int, int]],
        *,
        degraded: bool = False,
    ) -> BatchProbeResult:
        """Batched ``TimedIndexProbe``: serve many probes in one pass.

        Each request is a ``(value, t1, t2)`` triple.  The batch visits
        every constituent once, groups the requests that need it, dedups
        repeated values (a Zipf-skewed query stream repeats hot values
        constantly), and reads the needed buckets in physical offset order
        so touches of the same extent share one seek
        (:meth:`ConstituentIndex.probe_batch_buckets`).

        Returns per-request :class:`ProbeResult`\\ s in request order —
        each request's answer is identical to what its individual
        :meth:`timed_index_probe` would return — plus a
        :class:`BatchCostSummary` of what the whole batch cost the device.
        A shared bucket read's seconds are split evenly across the requests
        it served, so per-request latencies sum to the batch total.

        Two identical ``(value, t1, t2)`` requests provably receive
        identical results — same filtered entries, same cost share, same
        coverage — so the batch is solved once per *unique* spec and each
        duplicate gets the same immutable :class:`ProbeResult`.  Cost
        shares are weighted by duplicate count: with ``N`` total
        requesters of a value, every copy is charged ``cost / N``.
        Per-bucket filtering runs on the bucket's
        :class:`~repro.index.kernels.Run` via
        :class:`~repro.index.kernels.RangeFilterCache`: an answer is
        assembled from slices of the runs' own tuples (the slice itself
        when one constituent answers) and its ``parts`` say which.

        ``degraded`` behaves as for :meth:`timed_index_probe`, applied
        per constituent: offline or failing constituents are reported in
        the affected requests' ``missing_days``.
        """
        specs = list(requests)
        for value, t1, t2 in specs:
            if t1 > t2:
                raise WaveIndexError(f"empty time range [{t1}, {t2}]")
        n = len(specs)
        unique_ids: dict[tuple[Any, int, int], int] = {}
        fanout: list[int] = []
        weights: list[int] = []
        for spec in specs:
            j = unique_ids.setdefault(spec, len(unique_ids))
            if j == len(weights):
                weights.append(0)
            fanout.append(j)
            weights[j] += 1
        uspecs = list(unique_ids)
        m = len(uspecs)
        begin = self._begin_batch()
        hits: list[list] = [[] for _ in range(m)]
        seconds = [0.0] * m
        probed = [0] * m
        covered: list[set[int]] = [set() for _ in range(m)]
        missing: list[set[int]] = [set() for _ in range(m)]
        constituents_touched = 0
        buckets_read = 0
        duplicate_hits = 0
        for name in self.constituents:
            index = self.bindings.get(name)
            if index is None:
                continue
            days_memo: dict[tuple[int, int], set[int]] = {}
            relevant: list[tuple[int, set[int]]] = []
            for j, (value, t1, t2) in enumerate(uspecs):
                # A replay asks many values over one sliding window:
                # intersect each unique range once.  The sets are only read.
                days = days_memo.get((t1, t2))
                if days is None:
                    days = self._relevant_days(index, t1, t2)
                    days_memo[(t1, t2)] = days
                if days:
                    relevant.append((j, days))
            if not relevant:
                continue
            all_days = set().union(*(days for _, days in relevant))
            if name in self.offline:
                self._skip_offline(name, all_days, degraded, "probe")
                for j, days in relevant:
                    missing[j].update(days)
                continue
            by_value: dict[Any, list[int]] = {}
            for j, _ in relevant:
                by_value.setdefault(uspecs[j][0], []).append(j)
            try:
                found, nbuckets = index.probe_batch_buckets(by_value)
            except FaultError:
                self.offline.add(name)
                if not degraded:
                    raise
                for j, days in relevant:
                    missing[j].update(days)
                continue
            constituents_touched += 1
            buckets_read += nbuckets
            for j, days in relevant:
                probed[j] += 1
                covered[j].update(days)
            for value, requesters in by_value.items():
                got = found.get(value)
                if got is None:
                    continue
                bucket, cost = got
                total_requests = sum(weights[j] for j in requesters)
                duplicate_hits += total_requests - 1
                share = cost / total_requests
                cache = kernels.RangeFilterCache(bucket.run())
                for j in requesters:
                    _, t1, t2 = uspecs[j]
                    hit = cache.filter(t1, t2)
                    if hit[0]:
                        hits[j].append(hit)
                    seconds[j] += share
        unique_results = []
        for j in range(m):
            entries, parts = kernels.assemble(hits[j])
            unique_results.append(
                ProbeResult(
                    entries,
                    seconds[j],
                    probed[j],
                    frozenset(covered[j]),
                    frozenset(missing[j] - covered[j]),
                    parts,
                )
            )
        results = tuple(unique_results[j] for j in fanout)
        summary = self._finish_batch(
            begin,
            requests=n,
            constituents_touched=constituents_touched,
            buckets_read=buckets_read,
            duplicate_hits=duplicate_hits,
        )
        return BatchProbeResult(results, summary)

    def scan_many(
        self,
        requests: Sequence[tuple[int, int]],
        *,
        degraded: bool = False,
    ) -> BatchScanResult:
        """Batched ``TimedSegmentScan``: serve many range scans in one pass.

        Each request is a ``(t1, t2)`` pair.  Every constituent relevant to
        at least one request is charged one full transfer
        (:meth:`ConstituentIndex.charge_scan`), exactly *once* per batch
        and before anything is read; each request then filters the
        constituent's :meth:`~ConstituentIndex.sweep` — its entries in
        scan order with their day column, which the constituent keeps
        until its next mutation — down to its own range.  The scan's
        seconds are split evenly across the requests it served.

        Duplicate ``(t1, t2)`` requests receive the same immutable
        :class:`ScanResult`, charged ``cost / N`` per copy over the ``N``
        requests a constituent served; the sweep is filtered once per
        unique range through a per-batch
        :class:`~repro.index.kernels.RangeFilterCache`.  A range holding
        one day of a constituent is answered by that day's run and one
        holding all of them by the sweep itself — both kept by the
        constituent, so the answer is their own tuple and its ``parts``
        say so; any other range is filtered on every call and nothing
        filtered outlives it.
        """
        specs = list(requests)
        for t1, t2 in specs:
            if t1 > t2:
                raise WaveIndexError(f"empty time range [{t1}, {t2}]")
        n = len(specs)
        unique_ids: dict[tuple[int, int], int] = {}
        fanout: list[int] = []
        weights: list[int] = []
        for spec in specs:
            j = unique_ids.setdefault(spec, len(unique_ids))
            if j == len(weights):
                weights.append(0)
            fanout.append(j)
            weights[j] += 1
        uspecs = list(unique_ids)
        m = len(uspecs)
        begin = self._begin_batch()
        hits: list[list] = [[] for _ in range(m)]
        seconds = [0.0] * m
        scanned = [0] * m
        covered: list[set[int]] = [set() for _ in range(m)]
        missing: list[set[int]] = [set() for _ in range(m)]
        constituents_touched = 0
        duplicate_hits = 0
        for name in self.constituents:
            index = self.bindings.get(name)
            if index is None:
                continue
            relevant = []
            total_requests = 0
            for j, (t1, t2) in enumerate(uspecs):
                days = self._relevant_days(index, t1, t2)
                if days:
                    relevant.append((j, days))
                    total_requests += weights[j]
            if not relevant:
                continue
            all_days = set().union(*(days for _, days in relevant))
            if name in self.offline:
                self._skip_offline(name, all_days, degraded, "scan")
                for j, days in relevant:
                    missing[j].update(days)
                continue
            try:
                cost = index.charge_scan()
            except FaultError:
                self.offline.add(name)
                if not degraded:
                    raise
                for j, days in relevant:
                    missing[j].update(days)
                continue
            constituents_touched += 1
            duplicate_hits += total_requests - 1
            share = cost / total_requests
            cache = kernels.RangeFilterCache(index.sweep())
            for j, days in relevant:
                scanned[j] += 1
                covered[j].update(days)
                seconds[j] += share
                t1, t2 = uspecs[j]
                hit = cache.filter(t1, t2)
                if hit[0]:
                    hits[j].append(hit)
        unique_results = []
        for j in range(m):
            entries, parts = kernels.assemble(hits[j])
            unique_results.append(
                ScanResult(
                    entries,
                    seconds[j],
                    scanned[j],
                    frozenset(covered[j]),
                    frozenset(missing[j] - covered[j]),
                    parts,
                )
            )
        results = tuple(unique_results[j] for j in fanout)
        summary = self._finish_batch(
            begin,
            requests=n,
            constituents_touched=constituents_touched,
            buckets_read=0,
            duplicate_hits=duplicate_hits,
        )
        return BatchScanResult(results, summary)

    def cluster_aligned_probe(
        self, value: Any, t1: int, t2: int
    ) -> tuple[ProbeResult, bool]:
        """Probe only constituents whose time-sets lie fully in ``[t1, t2]``.

        Section 2.2's observation: "if we restrict timed queries to only
        refer to time intervals that correspond to the cluster intervals,
        then bucket entries do not need insertion times" — every entry of a
        fully covered constituent is relevant without per-entry filtering,
        so entries can be stored without timestamps (a smaller
        ``entry_size_bytes``).

        Returns:
            ``(result, exact)`` — ``exact`` is ``False`` when some
            constituent only partially overlaps the range, i.e. the result
            under-reports and the caller needs a full
            :meth:`timed_index_probe` (which requires timestamps).

        Raises:
            DegradedWindowError: If a fully covered constituent is offline
                (there is no ``degraded`` form: without timestamps a
                partial answer cannot say which days it lost).
        """
        if t1 > t2:
            raise WaveIndexError(f"empty time range [{t1}, {t2}]")
        entries: list[Entry] = []
        seconds = 0.0
        probed = 0
        exact = True
        for index in self.live_constituents():
            days = index.time_set
            if not days or not any(t1 <= d <= t2 for d in days):
                continue
            if min(days) < t1 or max(days) > t2:
                exact = False
                continue
            if index.name in self.offline:
                raise DegradedWindowError(
                    f"constituent {index.name} (days {sorted(days)}) is "
                    "offline; timed_index_probe(..., degraded=True) "
                    "answers the surviving window"
                )
            probed += 1
            found, cost = index.probe(value)
            entries.extend(found)
            seconds += cost
        return ProbeResult(tuple(entries), seconds, probed), exact

"""The wave index: a set of constituent indexes covering a window of days.

A :class:`WaveIndex` owns the name -> index bindings that the maintenance
schemes manipulate.  Bindings split into *constituents* (``I1`` .. ``In``,
the queryable members of Θ) and *temporaries* (``Temp``, ``T0`` ... — the
staging indexes of REINDEX+/REINDEX++/RATA*, invisible to queries).

Queries implement Section 2.2: a ``TimedIndexProbe``/``TimedSegmentScan``
touches only the constituents whose time-sets intersect the requested range
and filters retrieved entries by their insert-day timestamps (WATA's soft
windows can hold expired days, which timestamp filtering hides).  The
single-request operations are one-request ``probe_many`` / ``scan_many`` batches.
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

#: The coverage of a result that lost no day.
_NO_DAYS: frozenset[int] = frozenset()


def _lose(
    missing: list[set[int] | None], relevant: list[tuple[int, set[int]]]
) -> None:
    """Charge a skipped constituent's days to the ranges that needed it;
    a range's set is made by its first loss."""
    for r, days in relevant:
        lost = missing[r]
        if lost is None:
            missing[r] = set(days)
        else:
            lost.update(days)


def _missing(lost: set[int] | None, covered: set[int]) -> frozenset[int]:
    """Return the days a range lost and no other constituent covered."""
    return _NO_DAYS if lost is None else frozenset(lost - covered)


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
        self,
        name: str,
        relevant: list[tuple[int, set[int]]],
        degraded: bool,
        kind: str,
    ) -> None:
        """Raise unless the caller accepted a partial (degraded) answer."""
        if not degraded:
            days = set().union(*(days for _, days in relevant))
            raise DegradedWindowError(
                f"constituent {name} (days {sorted(days)}) is offline; "
                f"pass degraded=True to {kind} the surviving window"
            )

    def timed_index_probe(
        self, value: Any, t1: int, t2: int, *, degraded: bool = False
    ) -> ProbeResult:
        """``TimedIndexProbe(Θ, t1, t2, value)``: a one-request :meth:`probe_many`.

        With ``degraded=True``, constituents that are marked offline — or
        whose device fails during the probe — are skipped instead of
        failing the query: the result covers the surviving days and lists
        the lost ones in ``missing_days`` (the paper's availability
        argument, made operational under faults).
        """
        return self.probe_many([(value, t1, t2)], degraded=degraded).results[0]

    def index_probe(self, value: Any) -> ProbeResult:
        """``IndexProbe``: probe all constituents, no time restriction."""
        return self.timed_index_probe(value, NEG_INF, POS_INF)

    def timed_segment_scan(
        self, t1: int, t2: int, *, degraded: bool = False
    ) -> ScanResult:
        """``TimedSegmentScan(Θ, t1, t2)``: a one-request :meth:`scan_many`.

        ``degraded=True`` behaves as for :meth:`timed_index_probe`: offline
        or failing constituents are dropped from the answer and reported
        via ``missing_days`` instead of failing the scan.
        """
        return self.scan_many([(t1, t2)], degraded=degraded).results[0]

    def segment_scan(self) -> ScanResult:
        """``SegmentScan``: scan every constituent, no time restriction."""
        return self.timed_segment_scan(NEG_INF, POS_INF)

    # ------------------------------------------------------------------
    # Batched serving (amortized probes and scans)
    # ------------------------------------------------------------------

    def _begin_batch(self) -> tuple[float, float, int, int, int]:
        """Read the live counters a batch's bill is the difference of.

        ``(clock, seeks, bytes_read, cache hits, cache misses)``: a batch
        reads them when it starts and again when it ends, and no
        snapshot record is built on the read path.
        """
        disk = self.disk
        stats = disk.stats
        cache = disk.page_cache
        if cache is None:
            return disk.clock, stats.seeks, stats.bytes_read, 0, 0
        return disk.clock, stats.seeks, stats.bytes_read, cache.hits, cache.misses

    @staticmethod
    def _finish_batch(
        begin: tuple[float, float, int, int, int],
        end: tuple[float, float, int, int, int],
        requests: int,
        constituents_touched: int,
        buckets_read: int,
        duplicate_hits: int,
    ) -> BatchCostSummary:
        """Build a batch's bill from its two :meth:`_begin_batch` readings.

        Run by the first ``summary`` read of the batch's result, never by
        the batch itself (:class:`~repro.core.queries.BilledBatch`); a
        function of the readings alone, so a kept bill holds no wave.
        """
        clock, seeks, bytes_read, hits, misses = end
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
        each request's entries and coverage are what a batch of its own
        (:meth:`timed_index_probe`) returns, whatever else the batch holds
        — plus the batch's bill: the device counters read as the batch
        starts and as it ends (:meth:`_begin_batch`), which the first
        ``summary`` read turns into a :class:`BatchCostSummary` of what
        the whole batch cost the device (:meth:`_finish_batch`).  A
        caller that never reads the bill builds no record.
        A shared bucket read's seconds are split evenly across the requests
        it served, so per-request latencies sum to the batch total.

        Two identical ``(value, t1, t2)`` requests provably receive
        identical results — same filtered entries, same cost share, same
        coverage — so the batch is solved once per *unique* spec and each
        duplicate gets the same immutable :class:`ProbeResult`.  Cost
        shares are weighted by duplicate count: with ``N`` total
        requesters of a value, every copy is charged ``cost / N``.

        The work scales with the batch's unique windows and the buckets
        it finds, not with its specs.  Coverage depends on the window
        alone: each constituent's time-set is intersected once per unique
        ``(t1, t2)``, and every spec of a window shares its
        ``covered_days`` / ``missing_days`` objects.  Filtering walks the
        buckets :meth:`~ConstituentIndex.probe_batch_buckets` found, in
        the order it read them, and each of a bucket's requesters — one
        per window its value is asked over, so no two share a range —
        filters the bucket's :class:`~repro.index.kernels.Run` once with
        :func:`~repro.index.kernels.select`.  An answer is a slice of a
        run's own tuple when one constituent answers, one concatenation
        of slices otherwise (:func:`~repro.index.kernels.assemble`), and
        its ``parts`` say which.

        ``degraded`` behaves as for :meth:`timed_index_probe`, applied
        per constituent: offline or failing constituents are reported in
        the affected requests' ``missing_days``.
        """
        unique_ids: dict[tuple[Any, int, int], int] = {}
        fanout: list[int] = []
        weights: list[int] = []
        for spec in requests:
            j = unique_ids.setdefault(spec, len(unique_ids))
            if j == len(weights):
                weights.append(0)
            fanout.append(j)
            weights[j] += 1
        uspecs = list(unique_ids)
        m = len(uspecs)
        # Each unique spec's window and hit list, each window's coverage
        # sets, and each value's requesters in spec order with the
        # requests they stand for: what a constituent every window needs
        # is asked for.  Each is made as its spec or window first shows
        # up, so a small batch pays for no comprehension.
        window_ids: dict[tuple[int, int], int] = {}
        spec_window: list[int] = []
        hits: list[list] = []
        covered: list[set[int]] = []
        everyone: dict[Any, list[int]] = {}
        everyone_requests: dict[Any, int] = {}
        for j, (value, t1, t2) in enumerate(uspecs):
            if t1 > t2:
                raise WaveIndexError(f"empty time range [{t1}, {t2}]")
            w = window_ids.setdefault((t1, t2), len(covered))
            if w == len(covered):
                covered.append(set())
            spec_window.append(w)
            hits.append([])
            everyone.setdefault(value, []).append(j)
            everyone_requests[value] = everyone_requests.get(value, 0) + weights[j]
        windows = list(window_ids)
        k = len(windows)
        begin = self._begin_batch()
        seconds = [0.0] * m
        probed = [0] * k
        missing: list[set[int] | None] = [None] * k
        constituents_touched = 0
        buckets_read = 0
        duplicate_hits = 0
        select = kernels.select
        for name in self.constituents:
            index = self.bindings.get(name)
            if index is None:
                continue
            relevant: list[tuple[int, set[int]]] = []
            for w, (t1, t2) in enumerate(windows):
                days = self._relevant_days(index, t1, t2)
                if days:
                    relevant.append((w, days))
            if not relevant:
                continue
            if name in self.offline:
                self._skip_offline(name, relevant, degraded, "probe")
                _lose(missing, relevant)
                continue
            if len(relevant) == k:
                by_value, value_requests = everyone, everyone_requests
            else:
                needed = {w for w, _ in relevant}
                by_value, value_requests = {}, {}
                for j, (value, _t1, _t2) in enumerate(uspecs):
                    if spec_window[j] in needed:
                        by_value.setdefault(value, []).append(j)
                        value_requests[value] = (
                            value_requests.get(value, 0) + weights[j]
                        )
            try:
                found, nbuckets = index.probe_batch_buckets(by_value)
            except FaultError:
                self.offline.add(name)
                if not degraded:
                    raise
                _lose(missing, relevant)
                continue
            constituents_touched += 1
            buckets_read += nbuckets
            for w, days in relevant:
                probed[w] += 1
                covered[w].update(days)
            for value, (bucket, cost) in found.items():
                total_requests = value_requests[value]
                duplicate_hits += total_requests - 1
                share = cost / total_requests
                run = bucket.run()
                for j in by_value[value]:
                    _, t1, t2 = uspecs[j]
                    hit = select(run, t1, t2)
                    if hit[0]:
                        hits[j].append(hit)
                    seconds[j] += share
        coverage = []
        for w in range(k):
            coverage.append(
                (frozenset(covered[w]), _missing(missing[w], covered[w]))
            )
        unique_results = []
        for j in range(m):
            entries, parts = kernels.assemble(hits[j])
            w = spec_window[j]
            covered_days, missing_days = coverage[w]
            unique_results.append(
                ProbeResult(
                    entries,
                    seconds[j],
                    probed[w],
                    covered_days,
                    missing_days,
                    parts,
                )
            )
        return BatchProbeResult(
            tuple([unique_results[j] for j in fanout]),
            (
                self._finish_batch, begin, self._begin_batch(), len(fanout),
                constituents_touched, buckets_read, duplicate_hits,
            ),
        )

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
        and before anything is read; each request then asks the
        constituent for its own range (:meth:`ConstituentIndex.select`),
        which filters the constituent's entries in scan order, or hands
        over a run it keeps until its next mutation.  The scan's seconds
        are split evenly across the requests it served.

        Duplicate ``(t1, t2)`` requests receive the same immutable
        :class:`ScanResult`, charged ``cost / N`` per copy over the ``N``
        requests a constituent served, so each constituent is asked once
        per unique range.  A range holding one day of a constituent is
        answered by that day's run and one holding all of them by the
        constituent's sweep itself — both kept by the constituent, so the
        answer is their own tuple and its ``parts`` say so; any other
        range is filtered on every call and nothing filtered outlives it.
        The bill is kept and built as :meth:`probe_many`'s is.
        """
        unique_ids: dict[tuple[int, int], int] = {}
        fanout: list[int] = []
        weights: list[int] = []
        for spec in requests:
            j = unique_ids.setdefault(spec, len(unique_ids))
            if j == len(weights):
                weights.append(0)
            fanout.append(j)
            weights[j] += 1
        uspecs = list(unique_ids)
        # Each unique range's hit list and coverage set, made with it.
        hits: list[list] = []
        covered: list[set[int]] = []
        for t1, t2 in uspecs:
            if t1 > t2:
                raise WaveIndexError(f"empty time range [{t1}, {t2}]")
            hits.append([])
            covered.append(set())
        m = len(uspecs)
        begin = self._begin_batch()
        seconds = [0.0] * m
        scanned = [0] * m
        missing: list[set[int] | None] = [None] * m
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
            if name in self.offline:
                self._skip_offline(name, relevant, degraded, "scan")
                _lose(missing, relevant)
                continue
            try:
                cost = index.charge_scan()
            except FaultError:
                self.offline.add(name)
                if not degraded:
                    raise
                _lose(missing, relevant)
                continue
            constituents_touched += 1
            duplicate_hits += total_requests - 1
            share = cost / total_requests
            for j, days in relevant:
                scanned[j] += 1
                covered[j].update(days)
                seconds[j] += share
                t1, t2 = uspecs[j]
                hit = index.select(t1, t2)
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
                    _missing(missing[j], covered[j]),
                    parts,
                )
            )
        return BatchScanResult(
            tuple([unique_results[j] for j in fanout]),
            (
                self._finish_batch, begin, self._begin_batch(), len(fanout),
                constituents_touched, 0, duplicate_hits,
            ),
        )

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

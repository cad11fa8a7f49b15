"""Object-level oracles for the batched read path.

``WaveIndex.probe_many`` / ``scan_many`` solve a batch once per unique
request, weight cost shares by duplicate count and filter on day columns,
and bill the batch from five live device counters;
``PageCache.touch_span`` accounts whole-hit and whole-miss spans in bulk.
These are the straightforward forms they replaced in ``src/``: one
accumulator per request, every entry's day compared one by one, every
page touched one by one.  The batch oracles drive a wave through its
public surface only, so a twin wave on a twin disk served by an oracle
must end with the same answers, cost summary, clock, I/O counters and
page-cache state as the wave under test.  They are stated for healthy
devices: a constituent is offline only if marked so beforehand.

``scan_many_object`` is also the one flatten-per-scan implementation
left: it walks the buckets and sizes the transfer afresh on every call,
and reads nothing a constituent caches between calls (no ``scan()``, no
``sweep()``), so it can tell a stale sweep from a fresh one.

``begin_batch`` / ``finish_batch`` are the bill as it was, two
``IOSnapshot`` and two ``PageCacheSnapshot`` records subtracted;
:func:`snapshot_bill` serves a twin wave with them
(``tests/core/test_batch_bill.py``).  :func:`probe_many_eager` /
:func:`scan_many_eager` are the coordinator's batches with the eager
bill: every shard's summary read as its batch lands and merged by
:class:`SummaryMerge` as the batch ends.
"""

from contextlib import contextmanager
from unittest import mock

from repro.cluster.coordinator import ClusterCostSummary, _merge_scans
from repro.core import queries
from repro.core.wave import WaveIndex
from repro.errors import DegradedWindowError, FaultError, TransientIOError
from .disk import ComposedPageCache, page_span


def begin_batch(wave):
    """``WaveIndex._begin_batch`` as it was: snapshot the device counters."""
    io = wave.disk.stats.snapshot()
    cache = (
        wave.disk.page_cache.snapshot()
        if wave.disk.page_cache is not None
        else None
    )
    return wave.disk.clock, io, cache


def finish_batch(
    begin,
    end,
    requests,
    constituents_touched,
    buckets_read,
    duplicate_hits,
):
    """``WaveIndex._finish_batch`` as it was: subtract two snapshots."""
    clock0, io0, cache0 = begin
    clock, io1, cache1 = end
    io = io1 - io0
    cache_hits = cache_misses = 0
    if cache0 is not None:
        delta = cache1 - cache0
        cache_hits, cache_misses = delta.hits, delta.misses
    return queries.BatchCostSummary(
        requests=requests,
        seconds=clock - clock0,
        seeks=io.seeks,
        bytes_read=io.bytes_read,
        constituents_touched=constituents_touched,
        buckets_read=buckets_read,
        duplicate_hits=duplicate_hits,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
    )


def bill(wave, begin, *counts):
    """The bill a batch begun at ``begin`` keeps as it ends, in snapshots."""
    return (finish_batch, begin, begin_batch(wave), *counts)


@contextmanager
def snapshot_bill():
    """Bill every ``probe_many`` / ``scan_many`` batch the snapshot way.

    Swaps :func:`begin_batch` / :func:`finish_batch` in for
    ``WaveIndex._begin_batch`` / ``_finish_batch``, so a twin wave served
    inside the block is billed by snapshot records and the one served
    outside it by the live counters.  A batch keeps the finishing
    function it ended under, so its bill may be read after the block.
    """
    with mock.patch.object(WaveIndex, "_begin_batch", begin_batch), \
            mock.patch.object(
                WaveIndex, "_finish_batch", staticmethod(finish_batch)
            ):
        yield


def _needed(wave, ranges, degraded, missing):
    """Yield ``(index, [(request, days)])`` per needed online constituent.

    ``days`` is the part of the constituent's time-set inside request
    ``i``'s range.  A needed offline constituent raises, or with
    ``degraded`` is charged to the affected requests' ``missing``.
    """
    for name in wave.constituents:
        index = wave.get_optional(name)
        if index is None:
            continue
        relevant = []
        for i, (t1, t2) in enumerate(ranges):
            days = {d for d in index.time_set if t1 <= d <= t2}
            if days:
                relevant.append((i, days))
        if not relevant:
            continue
        if name in wave.offline:
            if not degraded:
                raise DegradedWindowError(f"constituent {name} is offline")
            for i, days in relevant:
                missing[i].update(days)
            continue
        yield index, relevant


def _results(cls, entries, seconds, touched, covered, missing):
    return tuple(
        cls(
            tuple(entries[i]),
            seconds[i],
            touched[i],
            frozenset(covered[i]),
            frozenset(missing[i] - covered[i]),
        )
        for i in range(len(entries))
    )


def probe_many_object(wave, specs, degraded=False):
    """``probe_many`` with one accumulator pass per ``(value, t1, t2)``."""
    n = len(specs)
    begin = begin_batch(wave)
    entries = [[] for _ in range(n)]
    seconds = [0.0] * n
    probed = [0] * n
    covered = [set() for _ in range(n)]
    missing = [set() for _ in range(n)]
    constituents_touched = buckets_read = duplicate_hits = 0
    ranges = [(t1, t2) for _, t1, t2 in specs]
    for index, relevant in _needed(wave, ranges, degraded, missing):
        by_value = {}
        for i, _ in relevant:
            by_value.setdefault(specs[i][0], []).append(i)
        found, nbuckets = index.probe_batch_buckets(by_value)
        constituents_touched += 1
        buckets_read += nbuckets
        for i, days in relevant:
            probed[i] += 1
            covered[i].update(days)
        for value, requesters in by_value.items():
            if value not in found:
                continue
            bucket, cost = found[value]
            duplicate_hits += len(requesters) - 1
            for i in requesters:
                t1, t2 = ranges[i]
                entries[i].extend(e for e in bucket.entries if t1 <= e.day <= t2)
                seconds[i] += cost / len(requesters)
    return queries.BatchProbeResult(
        _results(queries.ProbeResult, entries, seconds, probed, covered, missing),
        bill(wave, begin, n, constituents_touched, buckets_read, duplicate_hits),
    )


def scan_many_object(wave, specs, degraded=False):
    """``scan_many`` with one filter pass over the sweep per ``(t1, t2)``."""
    n = len(specs)
    begin = begin_batch(wave)
    entries = [[] for _ in range(n)]
    seconds = [0.0] * n
    scanned = [0] * n
    covered = [set() for _ in range(n)]
    missing = [set() for _ in range(n)]
    constituents_touched = duplicate_hits = 0
    for index, relevant in _needed(wave, specs, degraded, missing):
        cost = index.disk.stream_read(index.allocated_bytes)
        found = [e for bucket in index.buckets() for e in bucket.entries]
        constituents_touched += 1
        duplicate_hits += len(relevant) - 1
        for i, days in relevant:
            scanned[i] += 1
            covered[i].update(days)
            seconds[i] += cost / len(relevant)
            t1, t2 = specs[i]
            entries[i].extend(e for e in found if t1 <= e.day <= t2)
    return queries.BatchScanResult(
        _results(queries.ScanResult, entries, seconds, scanned, covered, missing),
        bill(wave, begin, n, constituents_touched, 0, duplicate_hits),
    )


class PerPagePageCache(ComposedPageCache):
    """A page cache that touches every span one page at a time."""

    def _touch(self, extent, nbytes, offset, *, is_read):
        span = page_span(self.page_size, extent, nbytes, offset)
        missed = 0
        for page_index in span:
            key = (extent.extent_id, page_index)
            if key in self._pages:
                self._pages.move_to_end(key)
                self.hits += 1
                if is_read:
                    self.read_hits += 1
                else:
                    self.write_hits += 1
            else:
                missed += 1
                self.misses += 1
                self._admit(key)
        return missed, len(span)


# ----------------------------------------------------------------------
# The coordinator's eager bill
# ----------------------------------------------------------------------
#
# ``ClusterCoordinator.probe_many`` / ``scan_many`` as they were before a
# bill was built on read: every shard's ``BatchCostSummary`` is read as
# its batch lands and merged into the ``ClusterCostSummary`` as the
# batch ends, and the serving rule makes its retry table, exclusion set
# and filtered candidate list on every call.  Each returns ``(results,
# summary)``; a twin cluster served by them must end with the same
# answers, bills, clocks and counters as the one under test
# (``tests/core/test_batch_bill.py``).


class SummaryMerge:
    """Accumulates per-shard batch summaries into a cluster summary."""

    def __init__(self):
        self.per_shard = []
        self.unavailable = []
        self.missing = set()
        self.aborted = {}

    def add(self, shard_id, summary):
        self.per_shard.append((shard_id, summary))

    def shard_dark(self, shard):
        self.unavailable.append(shard.shard_id)

    def charge_aborted(self, shard_id, seconds):
        if seconds > 0.0:
            self.aborted[shard_id] = self.aborted.get(shard_id, 0.0) + seconds

    def finish(self, requests, failovers):
        totals = [
            s.seconds + self.aborted.get(sid, 0.0) for sid, s in self.per_shard
        ]
        totals.extend(self.aborted.get(sid, 0.0) for sid in self.unavailable)
        aborted_total = sum(self.aborted.values())
        return ClusterCostSummary(
            requests=requests,
            serial_seconds=sum(s.seconds for _, s in self.per_shard)
            + aborted_total,
            elapsed_seconds=max(totals, default=0.0),
            seeks=sum(s.seeks for _, s in self.per_shard),
            bytes_read=sum(s.bytes_read for _, s in self.per_shard),
            failovers=failovers,
            shards_queried=len(self.per_shard),
            shards_unavailable=tuple(self.unavailable),
            missing_days=frozenset(self.missing),
            per_shard=tuple(self.per_shard),
            aborted_seconds=aborted_total,
        )


def serve_eager(coordinator, shard, call, *, degraded=True, route=None):
    """``ClusterCoordinator._serve`` as it was (the serving rule)."""
    monitor = coordinator.monitor
    now = monitor.now if monitor is not None else 0.0
    aborted = 0.0
    attempts = {}
    exclude = set()
    while True:
        candidates = [
            r for r in shard.replicas if r.replica_id not in exclude
        ]
        if monitor is not None:
            replica, breaker_wait = monitor.serving_replica(
                shard, now=now + aborted, exclude=exclude
            )
            aborted += breaker_wait
        elif coordinator.router is not None and route is not None:
            replica = coordinator.router.choose(
                shard, *route, candidates=candidates
            )
        else:
            replica = candidates[0] if candidates else None
        if replica is None:
            return None, None, aborted
        wave = replica.wave
        before = replica.clock
        before_offline = frozenset(wave.offline)
        try:
            outcome = call(replica, degraded and len(candidates) == 1)
        except DegradedWindowError:
            fault = DegradedWindowError
        except TransientIOError:
            fault = TransientIOError
        except FaultError:
            fault = FaultError
        else:
            if wave.offline == before_offline:
                if monitor is not None:
                    monitor.record_success(replica)
                return outcome, replica, aborted
            fault = FaultError if replica.device_failed else TransientIOError
        aborted += replica.clock - before
        if fault is DegradedWindowError:
            exclude.add(replica.replica_id)
            continue
        if fault is TransientIOError:
            wave.offline &= before_offline
        if fault is FaultError or monitor is None:
            coordinator._fail_over(shard, replica)
            continue
        monitor.on_transient(replica, now=now + aborted)
        n = attempts.get(replica.replica_id, 0) + 1
        attempts[replica.replica_id] = n
        if n >= monitor.retry.max_attempts:
            exclude.add(replica.replica_id)
            continue
        delay = monitor.retry.delay_before_retry(n)
        replica.device.advance(delay)
        aborted += delay
        monitor.note_retry(n)


def probe_many_eager(coordinator, requests, *, degraded=True):
    """``ClusterCoordinator.probe_many`` with the eager bill."""
    specs = list(requests)
    coordinator.obs.counter("cluster.probes").inc(len(specs))
    by_shard = {}
    shard_ids = coordinator.partitioner.shards_for_many(
        [value for value, _t1, _t2 in specs]
    )
    for i, shard_id in enumerate(shard_ids):
        by_shard.setdefault(shard_id, []).append(i)
    failovers = coordinator.failovers
    results = [None] * len(specs)
    merge = SummaryMerge()
    for shard_id in sorted(by_shard):
        shard = coordinator.shards[shard_id]
        indices = by_shard[shard_id]
        shard_specs = [specs[i] for i in indices]
        batch, _replica, aborted = serve_eager(
            coordinator,
            shard,
            lambda r, d: r.wave.probe_many(shard_specs, degraded=d),
            degraded=degraded,
            route=(
                min(t1 for _v, t1, _t2 in shard_specs),
                max(t2 for _v, _t1, t2 in shard_specs),
                "probe",
            )
            if coordinator.router is not None
            else None,
        )
        merge.charge_aborted(shard_id, aborted)
        if batch is None:
            merge.shard_dark(shard)
            for i in indices:
                _value, t1, t2 = specs[i]
                missing = frozenset(shard.window_days(t1, t2))
                merge.missing |= missing
                results[i] = queries.ProbeResult((), 0.0, 0, frozenset(), missing)
            continue
        merge.add(shard_id, batch.summary)
        for i, result in zip(indices, batch.results):
            results[i] = result
            merge.missing |= result.missing_days
    if merge.missing:
        coordinator.obs.counter("cluster.partial_answers").inc()
    return tuple(results), merge.finish(
        len(specs), coordinator.failovers - failovers
    )


def scan_many_eager(coordinator, requests, *, degraded=True):
    """``ClusterCoordinator.scan_many`` with the eager bill."""
    specs = list(requests)
    coordinator.obs.counter("cluster.scans").inc(len(specs))
    failovers = coordinator.failovers
    merge = SummaryMerge()
    answers = [[] for _ in specs]
    dark_missing = [set() for _ in specs]
    for shard in coordinator.shards:
        batch, _replica, aborted = serve_eager(
            coordinator,
            shard,
            lambda r, d: r.wave.scan_many(specs, degraded=d),
            degraded=degraded,
            route=(
                min(t1 for t1, _t2 in specs),
                max(t2 for _t1, t2 in specs),
                "scan",
            )
            if specs and coordinator.router is not None
            else None,
        )
        merge.charge_aborted(shard.shard_id, aborted)
        if batch is None:
            merge.shard_dark(shard)
            for i, (t1, t2) in enumerate(specs):
                dark_missing[i] |= shard.window_days(t1, t2)
            continue
        merge.add(shard.shard_id, batch.summary)
        for i, result in zip(range(len(specs)), batch.results):
            answers[i].append(result)
    results = []
    for i in range(len(specs)):
        merged = _merge_scans(answers[i], dark_missing[i])
        merge.missing |= merged.missing_days
        results.append(merged)
    if merge.missing:
        coordinator.obs.counter("cluster.partial_answers").inc()
    return tuple(results), merge.finish(
        len(specs), coordinator.failovers - failovers
    )

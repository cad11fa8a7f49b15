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
(``tests/core/test_batch_bill.py``).
"""

from contextlib import contextmanager
from unittest import mock

from repro.core import queries
from repro.core.wave import WaveIndex
from repro.errors import DegradedWindowError
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
    wave,
    begin,
    *,
    requests,
    constituents_touched,
    buckets_read,
    duplicate_hits,
):
    """``WaveIndex._finish_batch`` as it was: subtract two snapshots."""
    clock0, io0, cache0 = begin
    io = wave.disk.stats.snapshot() - io0
    cache_hits = cache_misses = 0
    if cache0 is not None:
        delta = wave.disk.page_cache.snapshot() - cache0
        cache_hits, cache_misses = delta.hits, delta.misses
    return queries.BatchCostSummary(
        requests=requests,
        seconds=wave.disk.clock - clock0,
        seeks=io.seeks,
        bytes_read=io.bytes_read,
        constituents_touched=constituents_touched,
        buckets_read=buckets_read,
        duplicate_hits=duplicate_hits,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
    )


@contextmanager
def snapshot_bill():
    """Bill every ``probe_many`` / ``scan_many`` batch the snapshot way.

    Swaps :func:`begin_batch` / :func:`finish_batch` in for
    ``WaveIndex._begin_batch`` / ``_finish_batch``, so a twin wave served
    inside the block is billed by snapshot records and the one served
    outside it by the live counters.
    """
    with mock.patch.object(WaveIndex, "_begin_batch", begin_batch), \
            mock.patch.object(WaveIndex, "_finish_batch", finish_batch):
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
        finish_batch(
            wave,
            begin,
            requests=n,
            constituents_touched=constituents_touched,
            buckets_read=buckets_read,
            duplicate_hits=duplicate_hits,
        ),
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
        finish_batch(
            wave,
            begin,
            requests=n,
            constituents_touched=constituents_touched,
            buckets_read=0,
            duplicate_hits=duplicate_hits,
        ),
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

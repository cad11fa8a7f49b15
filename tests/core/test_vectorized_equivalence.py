"""The batched read path against its object-level oracles.

`WaveIndex.probe_many` / `scan_many` solve each unique request once on
cached day columns (`repro.index.kernels`).  The promise is that none of
that is observable: answers come back in the same order, simulated
clocks and I/O statistics charge the same costs, page-cache counters
agree, and the wave serialises to the same snapshot.  These tests build
twin waves on twin disks, serve one with the code under test and the
other with `tests.reference.batch` — per-request accumulators, per-entry
filters, a per-page cache — and compare everything.  Each twin is served,
turned one more day and served again: what a constituent caches between
calls (bucket runs, its scan sweep) must not survive the transition that
outdates it.  Every answer is also marshalled for the wire — the first
batch only after the turn, as a response still in flight would be — and
the block must be the reference encoding of that answer's entries,
whether it was joined from the runs' cached bytes or encoded afresh.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.executor import PlanExecutor
from repro.core.persistence import wave_to_json
from repro.core.queries import ScanResult
from repro.core.schemes import ALL_SCHEMES, DelScheme, WataTable4Scheme
from repro.core.wave import WaveIndex
from repro.index import codec
from repro.index.config import IndexConfig
from repro.index.updates import UpdateTechnique
from repro.serve.protocol import result_to_wire
from repro.storage.disk import SimulatedDisk
from repro.storage.pagecache import PageCache
from tests.conftest import depth, make_store
from tests.reference.disk import ComposedDisk
from tests.reference.batch import (
    PerPagePageCache,
    probe_many_object,
    scan_many_object,
)

WINDOW, N, LAST = 6, 3, 12
LO, HI = LAST - WINDOW + 1, LAST

SCHEMES = (*ALL_SCHEMES, WataTable4Scheme)

#: Smaller than the ~1.5 KB wave, pages smaller than a bucket: spans are
#: whole hits, whole misses, mixed, and larger than the cache.
CACHE_BYTES, PAGE = 1024, 64


def build(disk, scheme_cls=DelScheme):
    """Return a wave at day ``LAST`` and what turns it to ``LAST + 1``.

    The extra turn runs in place: a shadow update would hand the served
    constituents' successors over without caches, and hide a stale one.
    """
    store = make_store(LAST + 1, seed=13)
    wave = WaveIndex(disk, IndexConfig(), N)
    executor = PlanExecutor(wave, store, UpdateTechnique.SIMPLE_SHADOW)
    scheme = scheme_cls(WINDOW, N)
    executor.execute(scheme.start_ops())
    for day in range(WINDOW + 1, LAST + 1):
        executor.execute(scheme.transition_ops(day))
    in_place = PlanExecutor(wave, store, UpdateTechnique.IN_PLACE)
    return wave, lambda: in_place.execute(scheme.transition_ops(LAST + 1))


def build_wave(disk, scheme_cls=DelScheme):
    return build(disk, scheme_cls)[0]


PROBE_REQUESTS = [
    ("a", LO, HI),
    ("a", LO, HI),  # duplicate spec: shares one result
    ("b", LO, HI - 2),
    ("a", LO + 1, HI),  # same value, different range
    ("c", LO + 3, HI),
    ("z", LO, HI),  # absent value
    ("b", LO, HI - 2),  # duplicate of an earlier spec
]

SCAN_REQUESTS = [(LO, HI), (HI, HI), (LO, HI), (LO, LO + 1), (HI, HI)]

#: Every ``t1 <= t2`` over the window and a day either side of it, before
#: and after the extra turn: one day, all days, two days of a constituent.
EVERY_RANGE = [
    (t1, t2) for t1 in range(LO - 1, HI + 3) for t2 in range(t1, HI + 3)
]

# Ranges reach below the window (WATA's soft windows still hold those
# days) and past its end, before and after the extra turn; "z" is in no
# record.
ranges = st.tuples(
    st.integers(1, LAST + 2), st.integers(1, LAST + 2)
).map(lambda pair: (min(pair), max(pair)))
probe_specs = st.tuples(st.sampled_from("abcdefghz"), ranges).map(
    lambda spec: (spec[0], *spec[1])
)


@st.composite
def batches(draw, specs):
    """A batch that is sure to repeat some of its own requests."""
    base = draw(st.lists(specs, min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(base), max_size=6))
    return draw(st.permutations(base + repeats))


def lru_order(cache):
    """The resident pages, coldest first, extents numbered by age.

    Extent ids are unique per process, so twin disks never share them;
    twin builds allocate in the same order, so ranks line up.
    """
    rank = {ext: i for i, ext in enumerate(sorted({ext for ext, _ in cache._pages}))}
    return tuple((rank[ext], page) for ext, page in cache._pages)


def serve(probe_many, scan_many, cache_cls, scheme_cls, offline, probes, scans):
    """Build a wave and serve one workload; return all that is observable.

    The per-page cache charges through its own hooks, which only the
    composed disk calls.
    """
    disk_cls = ComposedDisk if cache_cls is PerPagePageCache else SimulatedDisk
    disk = disk_cls(
        page_cache=cache_cls(CACHE_BYTES, PAGE) if cache_cls else None
    )
    wave, turn = build(disk, scheme_cls)
    if offline:
        wave.offline.add(offline)
    degraded = bool(offline)
    probe = probe_many(wave, probes, degraded=degraded)
    scan = scan_many(wave, scans, degraded=degraded)
    warm = probe_many(wave, probes, degraded=degraded)
    blocks = [result_to_wire(r)["entries"] for r in warm.results]
    turn()
    turned_probe = probe_many(wave, probes, degraded=degraded)
    turned_scan = scan_many(wave, scans, degraded=degraded)
    answers = (
        *warm.results, *probe.results, *scan.results,
        *turned_probe.results, *turned_scan.results,
    )
    blocks += [result_to_wire(r)["entries"] for r in answers[len(blocks):]]
    for result, block in zip(answers, blocks):
        assert block == codec.encode_entries_object(result.entries)
    cache = disk.page_cache
    return {
        "wire_blocks": blocks,
        "probe_results": probe.results,
        "probe_summary": probe.summary,
        "scan_results": scan.results,
        "scan_summary": scan.summary,
        "warm_results": warm.results,
        "warm_summary": warm.summary,
        "turned_probe_results": turned_probe.results,
        "turned_probe_summary": turned_probe.summary,
        "turned_scan_results": turned_scan.results,
        "turned_scan_summary": turned_scan.summary,
        "clock": disk.clock,
        "io": disk.stats.snapshot(),
        "cache": cache and (cache.snapshot(), lru_order(cache)),
        "snapshot_json": wave_to_json(wave),
    }


def serve_both(cached, *workload):
    """Serve ``(scheme_cls, offline, probes, scans)`` on both twins."""
    got = serve(
        WaveIndex.probe_many,
        WaveIndex.scan_many,
        PageCache if cached else None,
        *workload,
    )
    want = serve(
        probe_many_object,
        scan_many_object,
        PerPagePageCache if cached else None,
        *workload,
    )
    return got, want


@pytest.mark.parametrize("offline", [None, "I1"], ids=["healthy", "degraded"])
@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=lambda cls: cls.name)
@given(probes=batches(probe_specs), scans=batches(ranges))
@example(probes=PROBE_REQUESTS, scans=SCAN_REQUESTS)
@settings(max_examples=depth(6), deadline=None)
def test_serving_matches_oracle(scheme_cls, cached, offline, probes, scans):
    got, want = serve_both(cached, scheme_cls, offline, probes, scans)
    for key in want:
        assert got[key] == want[key], key
    # The batch contract: each answer is the oracle's batch of one,
    # served on a twin wave.
    wave = build_wave(SimulatedDisk(), scheme_cls)
    if offline:
        wave.offline.add(offline)
    for spec, result in zip(probes, got["probe_results"]):
        (solo,) = probe_many_object(wave, [spec], degraded=bool(offline)).results
        assert result.entries == solo.entries
        assert result.covered_days == solo.covered_days
        assert result.missing_days == solo.missing_days


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=lambda cls: cls.name)
def test_every_scan_range_matches_oracle(scheme_cls, cached):
    got, want = serve_both(cached, scheme_cls, None, PROBE_REQUESTS, EVERY_RANGE)
    for key in want:
        assert got[key] == want[key], key
    scans = (*got["scan_results"], *got["turned_scan_results"])
    # Answers cut from a kept run say so (serve() held their joined
    # bytes to the reference encoding); the oracle's never do.
    assert any(r.entries and r.parts and len(r.parts) == 1 for r in scans)
    assert all(r.parts is None for r in want["scan_results"])


class TestBatchedServingEquivalence:
    def test_fixed_requests_exercise_cache_and_degraded_answers(self):
        got, _ = serve_both(True, DelScheme, "I1", PROBE_REQUESTS, SCAN_REQUESTS)
        assert got["cache"][0].hits > 0 and got["cache"][0].evictions > 0
        assert any(r.missing_days for r in got["probe_results"])

    def test_duplicate_requests_share_identical_results(self):
        wave = build_wave(SimulatedDisk())
        batch = wave.probe_many(PROBE_REQUESTS)
        # Requests 0 and 1 are the same spec: both get the same immutable
        # result, and the answer still matches the oracle's batch of one.
        assert batch.results[0] is batch.results[1]
        (solo,) = probe_many_object(
            build_wave(SimulatedDisk()), [("a", LO, HI)]
        ).results
        assert batch.results[0].entries == solo.entries

    def test_scan_parts_are_invisible_to_equality_hash_and_repr(self):
        wave = build_wave(SimulatedDisk())
        (result,) = wave.scan_many([(HI, HI)]).results
        assert result.entries and result.parts
        bare = ScanResult(
            tuple(result.entries), result.seconds, result.indexes_scanned,
            result.covered_days, result.missing_days,
        )
        assert bare.parts is None
        assert result == bare and hash(result) == hash(bare)
        assert repr(result) == repr(bare) and "parts" not in repr(result)

    def test_each_unique_range_meets_each_time_set_once(self, monkeypatch):
        wave = build_wave(SimulatedDisk())
        calls = []
        real = WaveIndex._relevant_days

        def counted(self, index, t1, t2):
            calls.append((index.name, t1, t2))
            return real(self, index, t1, t2)

        monkeypatch.setattr(WaveIndex, "_relevant_days", counted)
        wave.scan_many(SCAN_REQUESTS * 3)
        assert len(calls) == len(set(calls)) == len(set(SCAN_REQUESTS)) * N

    def test_weighted_cost_shares_match_reference(self):
        # 3 duplicates + 1 distinct value: every copy must be charged the
        # same share the oracle computes per request.
        requests = [("a", LO, HI)] * 3 + [("b", LO, HI)]
        got = build_wave(SimulatedDisk()).probe_many(requests)
        want = probe_many_object(build_wave(SimulatedDisk()), requests)
        assert [r.seconds for r in got] == [r.seconds for r in want]
        assert got.summary.duplicate_hits == want.summary.duplicate_hits


class TestSingleQueryEquivalence:
    """The single-request forms are one-request batches of the same path."""

    @pytest.mark.parametrize("value", ["a", "b", "z"])
    def test_timed_probe(self, value):
        disk, twin = SimulatedDisk(), SimulatedDisk()
        got = build_wave(disk).timed_index_probe(value, LO + 1, HI - 1)
        want = probe_many_object(build_wave(twin), [(value, LO + 1, HI - 1)])
        assert got == want.results[0]
        assert disk.clock == twin.clock

    def test_timed_scan(self):
        disk, twin = SimulatedDisk(), SimulatedDisk()
        got = build_wave(disk).timed_segment_scan(LO + 1, HI - 1)
        want = scan_many_object(build_wave(twin), [(LO + 1, HI - 1)])
        assert got == want.results[0]
        assert disk.clock == twin.clock

"""A probe batch pays per unique window and per bucket it finds.

`WaveIndex.probe_many` intersects each constituent's time-set once per
unique ``(t1, t2)``, hands every spec of a window the same coverage
sets, and filters each found bucket once per requester with
`kernels.select` — requests are deduplicated on the whole spec, so a
bucket's requesters ask over different windows and a per-range memo
would never hit.  None of that may show in an answer: the
property below serves the batches a replay sends — one or two sliding
windows, many values, the same value over both windows — on twin waves
and holds everything observable to `tests.reference.batch`.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro.core.wave import WaveIndex
from repro.storage.disk import SimulatedDisk
from tests.conftest import depth
from tests.core.test_vectorized_equivalence import (
    HI,
    LO,
    N,
    PROBE_REQUESTS,
    SCHEMES,
    build_wave,
    ranges,
    serve_both,
)

VALUES = "abcdefghz"


@st.composite
def window_batches(draw):
    """One or two windows asked for 1–12 values, some over both.

    A value may be drawn twice (a duplicate spec) and asked over either
    window or both (one bucket, two requesters).
    """
    windows = draw(st.lists(ranges, min_size=1, max_size=2, unique=True))
    values = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=12))
    specs = []
    for value in values:
        asked = draw(st.sets(st.sampled_from(range(len(windows))), min_size=1))
        specs += [(value, *windows[w]) for w in sorted(asked)]
    return draw(st.permutations(specs))


#: The bench's shape: one window, hot values repeated, one value also
#: over a second window.
ONE_WINDOW = [(v, LO, HI) for v in "abcabdz"] + [("a", LO + 2, HI)]


@pytest.mark.parametrize("offline", [None, "I1"], ids=["healthy", "degraded"])
@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=lambda cls: cls.name)
@given(probes=window_batches())
@example(probes=ONE_WINDOW)
@settings(max_examples=depth(6), deadline=None)
def test_window_batches_match_oracle(scheme_cls, cached, offline, probes):
    got, want = serve_both(cached, scheme_cls, offline, probes, [(LO, HI)])
    for key in want:
        assert got[key] == want[key], key


def test_each_unique_window_meets_each_time_set_once(monkeypatch):
    wave = build_wave(SimulatedDisk())
    calls = []
    real = WaveIndex._relevant_days

    def counted(self, index, t1, t2):
        calls.append((index.name, t1, t2))
        return real(self, index, t1, t2)

    monkeypatch.setattr(WaveIndex, "_relevant_days", counted)
    wave.probe_many(PROBE_REQUESTS * 3)
    windows = {(t1, t2) for _value, t1, t2 in PROBE_REQUESTS}
    assert len(calls) == len(set(calls)) == len(windows) * N


def test_specs_of_a_window_share_their_coverage():
    wave = build_wave(SimulatedDisk())
    wave.offline.add("I1")
    requests = [("a", LO, HI), ("b", LO, HI), ("z", LO, HI), ("a", LO + 1, HI)]
    first, second, absent, other = wave.probe_many(requests, degraded=True)
    assert first.covered_days and first.missing_days
    for result in (second, absent):
        assert result.covered_days is first.covered_days
        assert result.missing_days is first.missing_days
    assert other.covered_days is not first.covered_days

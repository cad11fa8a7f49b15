"""Figure 11 cross-validation: measured bytes against the symbolic model.

The Figure-11 bench computes WATA*'s index-size ratio symbolically from
day weights.  Here the same experiment runs on the real substrate — actual
indexes over a volume-varying document workload — and the measured byte
ratio must track the symbolic prediction.
"""

import pytest

from repro.casestudies.sizing import hard_window_sizes, scheme_daily_sizes
from repro.core.records import RecordStore
from repro.core.schemes.wata import WataStarScheme
from repro.index.config import IndexConfig
from repro.index.updates import UpdateTechnique
from repro.sim.driver import run_simulation
from repro.workloads.text import NetnewsGenerator, TextWorkloadConfig
from repro.workloads.usenet import weekly_volume_trace

WINDOW, LAST = 7, 42


@pytest.fixture(scope="module")
def volume_trace():
    # Scale the weekly profile down to document counts a test can index.
    raw = weekly_volume_trace(LAST, jitter=0.05, seed=77)
    return [max(2, v // 5000) for v in raw]  # ~6..22 docs/day


@pytest.fixture(scope="module")
def store(volume_trace):
    store = RecordStore()
    NetnewsGenerator(
        TextWorkloadConfig(docs_per_day=0, words_per_doc=12, vocabulary=200, seed=9),
        volume=volume_trace,
    ).populate(store, 1, LAST)
    return store


@pytest.mark.parametrize("n", [2, 3, 4])
class TestMeasuredSizeRatio:
    def test_measured_ratio_tracks_symbolic(self, store, volume_trace, n):
        # Symbolic prediction from entry-count weights.
        weights = [store.batch(d).entry_count for d in range(1, LAST + 1)]
        scheme = WataStarScheme(WINDOW, n)
        lazy = max(scheme_daily_sizes(scheme, weights, LAST))
        eager = max(hard_window_sizes(weights, WINDOW, LAST))
        symbolic_ratio = lazy / eager

        # Measured: peak constituent bytes over the run, against the peak
        # a packed hard window would need (entry bytes).
        result = run_simulation(
            lambda: WataStarScheme(WINDOW, n),
            store,
            last_day=LAST,
            technique=UpdateTechnique.PACKED_SHADOW,
            index_config=IndexConfig(),
        )
        entry_size = 16
        measured_peak = max(d.constituent_bytes for d in result.days)
        eager_peak = eager * entry_size
        measured_ratio = measured_peak / eager_peak

        # Packed-shadow keeps indexes near-packed, so bytes track entry
        # counts closely; CONTIGUOUS slack from the daily appends adds a
        # bounded overhead.
        assert measured_ratio == pytest.approx(symbolic_ratio, rel=0.35)
        assert measured_ratio >= symbolic_ratio * 0.95

    def test_ratio_decreases_with_n(self, store, volume_trace, n):
        if n == 2:
            pytest.skip("needs a smaller-n comparison point")
        weights = [store.batch(d).entry_count for d in range(1, LAST + 1)]

        def ratio(k):
            scheme = WataStarScheme(WINDOW, k)
            lazy = max(scheme_daily_sizes(scheme, weights, LAST))
            return lazy / max(hard_window_sizes(weights, WINDOW, LAST))

        assert ratio(n) <= ratio(n - 1) + 1e-9

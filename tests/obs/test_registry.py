"""Tests for the observability counter/histogram registry."""

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Counter, Histogram, LogHistogram, MetricsRegistry


class TestCounter:
    def test_inc_defaults_to_one(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestHistogram:
    def test_empty_histogram_is_all_zero(self):
        h = Histogram("lat")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.summary()["p99"] == 0.0

    def test_stats(self):
        h = Histogram("lat")
        for v in [4.0, 1.0, 3.0, 2.0]:
            h.observe(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.mean == 2.5
        assert h.min == 1.0
        assert h.max == 4.0

    def test_nearest_rank_quantiles(self):
        h = Histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.50) == 50.0
        assert h.quantile(0.95) == 95.0
        assert h.quantile(1.0) == 100.0

    def test_quantile_range_validated(self):
        with pytest.raises(ValueError):
            Histogram("lat").quantile(1.5)

    def test_summary_keys(self):
        h = Histogram("lat")
        h.observe(1.0)
        assert set(h.summary()) == {
            "count", "total", "mean", "min", "p50", "p95", "p99", "max"
        }

    def test_summary_agrees_with_the_single_field_accessors(self):
        h = Histogram("lat")
        for v in (0.3, -0.0, 0.0, 7.5, 0.1, 0.1, 2.25, 1e-9, 40.0, 0.7):
            h.observe(v)
        assert list(h.summary().items()) == [
            ("count", h.count), ("total", h.total), ("mean", h.mean),
            ("min", h.min), ("p50", h.quantile(0.50)),
            ("p95", h.quantile(0.95)), ("p99", h.quantile(0.99)),
            ("max", h.max),
        ]
        assert h.values[:3] == [0.3, -0.0, 0.0]  # observations left unsorted


#: Observations in LogHistogram's accurate range, zero among them.
_IN_RANGE = st.lists(
    st.one_of(
        st.floats(min_value=LogHistogram.LOWEST, max_value=LogHistogram.HIGHEST),
        st.just(0.0),
    ),
    min_size=1,
    max_size=200,
)


def _twins(values):
    exact, bounded = Histogram("x"), LogHistogram("x")
    for value in values:
        exact.observe(value)
        bounded.observe(value)
    return exact, bounded


class TestLogHistogram:
    def test_empty_is_all_zero_with_the_same_keys(self):
        summary = LogHistogram("lat").summary()
        assert list(summary) == list(Histogram("lat").summary())
        assert set(summary.values()) == {0}

    @settings(deadline=None)
    @given(values=_IN_RANGE, q=st.floats(min_value=0.0, max_value=1.0))
    def test_quantiles_are_within_the_stated_error(self, values, q):
        exact, bounded = _twins(values)
        error = LogHistogram.RELATIVE_ERROR * (1 + 1e-9)
        for wanted, got in (
            (exact.quantile(q), bounded.quantile(q)),
            *(
                (exact.summary()[key], bounded.summary()[key])
                for key in ("p50", "p95", "p99")
            ),
        ):
            assert abs(got - wanted) <= error * wanted, (wanted, got)

    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1,
            max_size=200,
        )
    )
    def test_count_total_min_and_max_are_exact(self, values):
        exact, bounded = _twins(values)
        total = 0.0
        for value in values:
            total += value
        assert bounded.count == exact.count
        assert bounded.total == total  # summed in arrival order
        assert (bounded.min, bounded.max) == (exact.min, exact.max)
        summary = bounded.summary()
        assert (summary["count"], summary["min"], summary["max"]) == (
            exact.count, exact.min, exact.max,
        )

    def test_zero_and_negative_values_share_their_own_bucket(self):
        h = LogHistogram("depth")
        for value in (0, 0, 0, 5):
            h.observe(value)
        assert (h.quantile(0.5), h.quantile(0.75), h.max) == (0.0, 0.0, 5)
        h.observe(-3.0)
        # Below zero the bucket knows only the extremes it is clamped to.
        assert h.quantile(0.0) == 0.0 and h.min == -3.0
        assert LogHistogram("neg").summary()["min"] == 0.0

    def test_memory_is_bounded_by_its_slots(self):
        rng = random.Random(5)
        tracemalloc.start()
        try:
            h = LogHistogram("wall")
            built = tracemalloc.get_traced_memory()[0]
            for _ in range(150_000):
                h.observe(rng.expovariate(1e4))
            grown = tracemalloc.get_traced_memory()[0] - built
        finally:
            tracemalloc.stop()
        # Only a slot's count can grow, from a shared small int to a
        # 28-byte one, whatever the number of observations.  An exact
        # histogram keeps 8 bytes a value: 1.2 MB here.
        assert len(h._counts) == LogHistogram.SLOTS
        assert grown < 32 * LogHistogram.SLOTS

    def test_summary_cost_does_not_grow_with_observations(self):
        def cost(n):
            h = LogHistogram("wall")
            rng = random.Random(n)
            for _ in range(n):
                h.observe(rng.expovariate(1e4))
            best = float("inf")
            for _ in range(20):
                start = time.perf_counter()
                h.summary()
                best = min(best, time.perf_counter() - start)
            return best

        # An exact histogram sorts every observation: 10 000x the work.
        assert cost(100_000) < 5 * cost(10)


class TestRegistry:
    def test_create_on_first_use_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("io.seeks") is reg.counter("io.seeks")
        assert reg.histogram("lat") is reg.histogram("lat")

    def test_a_hit_constructs_nothing(self, monkeypatch):
        """Hot paths look metrics up per request: a hit is a dict read."""
        from repro.obs import registry

        reg = MetricsRegistry()
        counter, histogram = reg.counter("x"), reg.histogram("y")

        def refuse(*args, **kwargs):
            raise AssertionError("constructed a metric on a registry hit")

        monkeypatch.setattr(registry, "Counter", refuse)
        monkeypatch.setattr(registry, "Histogram", refuse)
        assert reg.counter("x") is counter
        assert reg.histogram("y") is histogram
        with pytest.raises(AssertionError):
            reg.counter("new")  # a miss does construct

    def test_cross_kind_name_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.histogram("x")
        reg.histogram("y")
        with pytest.raises(ValueError):
            reg.counter("y")
        with pytest.raises(ValueError):
            reg.log_histogram("y")
        with pytest.raises(ValueError):
            reg.log_histogram("x")

    def test_a_bounded_histogram_reads_through_histogram(self):
        reg = MetricsRegistry()
        bounded = reg.log_histogram("serve.latency.wall")
        assert reg.log_histogram("serve.latency.wall") is bounded
        assert reg.histogram("serve.latency.wall") is bounded
        bounded.observe(0.25)
        assert reg.snapshot()["histograms"]["serve.latency.wall"]["p50"] == 0.25

    def test_snapshot_is_plain_data(self):
        import json

        reg = MetricsRegistry()
        reg.counter("io.seeks").inc(7)
        reg.histogram("lat").observe(0.014)
        snap = reg.snapshot()
        assert snap["counters"] == {"io.seeks": 7.0}
        assert snap["histograms"]["lat"]["count"] == 1
        json.dumps(snap)  # must be JSON-serialisable

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert reg.counters() == {}
        assert reg.counter("x").value == 0.0


class TestCounterWindow:
    def test_delta_measures_growth_since_open(self):
        reg = MetricsRegistry()
        reg.counter("x").inc(5)
        window = reg.window("x")
        reg.counter("x").inc(3)
        assert window.delta("x") == 3.0

    def test_named_counter_created_inside_the_interval(self):
        reg = MetricsRegistry()
        window = reg.window("late")
        reg.counter("late").inc(4)
        assert window.delta("late") == 4.0

    def test_named_window_reports_zero_deltas_explicitly(self):
        # Per-day consumers read a quiet day's counter as zero.
        reg = MetricsRegistry()
        window = reg.window("quiet")
        assert window.delta("quiet") == 0.0

"""Tests for the observability counter/histogram registry."""

import pytest

from repro.obs import Counter, Histogram, MetricsRegistry


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
        assert window.deltas() == {"late": 4.0}

    def test_unnamed_window_baselines_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(10)
        window = reg.window()
        reg.counter("a").inc(1)
        reg.counter("b").inc(2)  # arrives after the window opened
        assert window.deltas() == {"a": 1.0, "b": 2.0}

    def test_deltas_filters_by_prefix(self):
        reg = MetricsRegistry()
        window = reg.window()
        reg.counter("advisor.shard0.probes").inc(3)
        reg.counter("io.seeks").inc(9)
        assert window.deltas("advisor.") == {"advisor.shard0.probes": 3.0}

    def test_advance_rolls_the_baseline(self):
        reg = MetricsRegistry()
        window = reg.window("x")
        reg.counter("x").inc(7)
        first = window.advance()
        reg.counter("x").inc(2)
        second = window.advance()
        assert first == {"x": 7.0}
        assert second == {"x": 2.0}

    def test_named_window_reports_zero_deltas_explicitly(self):
        # Per-day consumers want the key present even on a quiet day.
        reg = MetricsRegistry()
        window = reg.window("quiet")
        assert window.deltas() == {"quiet": 0.0}

"""Tests for span tracing on the simulated clock."""

import pytest

from repro.obs import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestSpans:
    def test_span_measures_clock_delta(self, tracer, clock):
        with tracer.span("work"):
            clock.now += 2.5
        (span,) = tracer.spans
        assert span.name == "work"
        assert span.duration_s == 2.5
        assert span.parent_id is None
        assert span.depth == 0

    def test_tags_recorded(self, tracer, clock):
        with tracer.span("day", day=11, batch=256):
            clock.now += 1.0
        assert tracer.spans[0].tags == {"day": 11, "batch": 256}

    def test_unfinished_span_has_no_duration(self, tracer, clock):
        with tracer.span("work") as span:
            with pytest.raises(ValueError):
                span.duration_s

    def test_nesting_sets_parent_and_depth(self, tracer, clock):
        with tracer.span("day") as day:
            with tracer.span("maintenance") as maint:
                clock.now += 1.0
            with tracer.span("queries"):
                clock.now += 3.0
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["maintenance"].parent_id == day.span_id
        assert by_name["maintenance"].depth == 1
        assert by_name["day"].depth == 0
        assert maint.duration_s == 1.0

    def test_exclusive_time_subtracts_children(self, tracer, clock):
        with tracer.span("day"):
            clock.now += 0.5
            with tracer.span("maintenance"):
                clock.now += 2.0
            clock.now += 0.25
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["day"].duration_s == 2.75
        assert by_name["day"].exclusive_s == pytest.approx(0.75)
        assert by_name["maintenance"].exclusive_s == 2.0

    def test_completion_order(self, tracer, clock):
        with tracer.span("outer"):
            with tracer.span("inner"):
                clock.now += 1.0
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_exception_still_closes_span(self, tracer, clock):
        with pytest.raises(RuntimeError):
            with tracer.span("work"):
                clock.now += 1.0
                raise RuntimeError("boom")
        assert tracer.spans[0].end_s == 1.0
        assert tracer._stack == []  # no span left open


class TestAggregation:
    def test_phase_seconds_sums_exclusive_by_name(self, tracer, clock):
        for _ in range(3):
            with tracer.span("day"):
                with tracer.span("queries"):
                    clock.now += 2.0
        phases = tracer.phase_seconds()
        assert phases["queries"] == pytest.approx(6.0)
        assert phases["day"] == pytest.approx(0.0)

    def test_to_dicts_is_json_serialisable(self, tracer, clock):
        import json

        with tracer.span("day", day=7):
            clock.now += 1.0
        (d,) = tracer.to_dicts()
        json.dumps(d)
        assert d["name"] == "day"
        assert d["duration_s"] == 1.0

    def test_clear_keeps_open_spans_working(self, tracer, clock):
        with tracer.span("outer"):
            with tracer.span("inner"):
                clock.now += 1.0
            tracer.clear()
            clock.now += 1.0
        assert [s.name for s in tracer.spans] == ["outer"]


class TestRetention:
    def test_retention_cap_drops_oldest(self, clock):
        tracer = Tracer(clock, max_spans=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                clock.now += 1.0
        assert [s.name for s in tracer.spans] == ["s2", "s3", "s4"]

    def test_max_spans_validated(self, clock):
        with pytest.raises(ValueError):
            Tracer(clock, max_spans=0)

"""Span-style operation tracing on the simulated clock.

A :class:`Tracer` records nested, named spans whose start/end times come
from a caller-supplied clock — in this repo, a
:class:`~repro.storage.disk.SimulatedDisk`'s clock — so a trace shows where
*simulated* time went: which phase of a transition, which batch of a query
replay, which constituent sweep.  Spans nest via a context manager::

    tracer = Tracer(lambda: disk.clock)
    with tracer.span("day", day=11):
        with tracer.span("maintenance"):
            ...
        with tracer.span("queries", batch=256):
            ...

Finished spans are plain records (name, start, end, tags, depth, parent)
appended in completion order; :meth:`Tracer.to_dicts` renders them for
JSON artifacts and :meth:`Tracer.phase_seconds` aggregates exclusive time
per span name — the per-phase breakdown the day metrics report.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One traced operation on the simulated timeline."""

    span_id: int
    name: str
    start_s: float
    tags: dict[str, Any] = field(default_factory=dict)
    parent_id: int | None = None
    depth: int = 0
    end_s: float | None = None
    #: Simulated seconds spent in child spans (for exclusive-time math).
    child_seconds: float = 0.0

    @property
    def duration_s(self) -> float:
        """Return the span's total (inclusive) simulated seconds."""
        if self.end_s is None:
            raise ValueError(f"span {self.name!r} has not finished")
        return self.end_s - self.start_s

    @property
    def exclusive_s(self) -> float:
        """Return seconds spent in this span but not in any child."""
        return self.duration_s - self.child_seconds

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-serialisable view of the finished span."""
        return {
            "id": self.span_id,
            "name": self.name,
            "parent": self.parent_id,
            "depth": self.depth,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "tags": dict(self.tags),
        }


class Tracer:
    """Collects spans against a monotonic (simulated) clock.

    Args:
        clock: Zero-argument callable returning the current simulated
            seconds; typically ``lambda: disk.clock``.
        max_spans: Retention cap — once reached, the oldest finished spans
            are discarded (long soak runs should not hoard memory).
    """

    def __init__(
        self, clock: Callable[[], float], *, max_spans: int = 100_000
    ) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self._clock = clock
        self._max_spans = max_spans
        self._next_id = 1
        self._stack: list[Span] = []
        #: Finished spans in completion order.
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[Span]:
        """Open a span; it closes (and is recorded) when the block exits."""
        record = Span(
            span_id=self._next_id,
            name=name,
            start_s=self._clock(),
            tags=tags,
            parent_id=self._stack[-1].span_id if self._stack else None,
            depth=len(self._stack),
        )
        self._next_id += 1
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end_s = self._clock()
            if self._stack:
                self._stack[-1].child_seconds += record.duration_s
            self.spans.append(record)
            if len(self.spans) > self._max_spans:
                del self.spans[: len(self.spans) - self._max_spans]

    def phase_seconds(self) -> dict[str, float]:
        """Return exclusive simulated seconds aggregated by span name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.exclusive_s
        return totals

    def to_dicts(self) -> list[dict[str, Any]]:
        """Return the finished spans as JSON-serialisable dicts."""
        return [span.to_dict() for span in self.spans]

    def clear(self) -> None:
        """Drop finished spans (open spans are unaffected)."""
        self.spans.clear()

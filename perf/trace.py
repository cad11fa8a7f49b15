"""Span recording from outside: timing wrappers around public entry points.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer`
replaces an attribute (a method on a class, a function in a module)
with a wrapper that records a span — name, start, end, parent — and
puts the original back on :meth:`Tracer.uninstall`.

The parent of a span is the span open in the same context (task or
thread) when it started; a ``ContextVar`` tracks that.  A request's
spans live in several contexts — the client's task, the server's
connection and request tasks, an executor thread — and nothing carries
an identifier between them, so :meth:`Tracer.adopt_orphans` links a
parentless span to the innermost span that contains it in time.  That
is exact only where one request is in flight at a time, which is why
self times are taken from the lone-caller sections.
"""

from __future__ import annotations

import inspect
from contextvars import ContextVar
from time import perf_counter
from typing import Any, Callable

#: ``counts(args, result) -> dict`` extracts counters at a span's boundary.
Counts = Callable[[tuple, Any], dict[str, float]]


class Span:
    __slots__ = ("name", "section", "start", "end", "parent", "counts")

    def __init__(self, name: str, section: str, start: float, parent: "Span | None") -> None:
        self.name = name
        self.section = section
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs timing wrappers and keeps their spans in memory.

    Spans are recorded only while :attr:`section` is set; the round
    runner labels each block (``turn``, ``cold``, ``load``, ``lone``,
    ``scan``) so spans can be aggregated per block.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.section: str | None = None
        self._current: ContextVar[Span | None] = ContextVar("span", default=None)
        self._installed: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def install(
        self, owner: Any, attr: str, name: str, counts: Counts | None = None
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = inspect.getattr_static(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self._wrap(getattr(owner, attr), name, counts))

    def uninstall(self) -> None:
        """Put every replaced attribute back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> tuple[Span, Any]:
        span = Span(name, self.section, perf_counter(), self._current.get())
        self.spans.append(span)
        return span, self._current.set(span)

    def _close(self, span: Span, token: Any) -> None:
        span.end = perf_counter()
        self._current.reset(token)

    def _wrap(self, fn: Callable, name: str, counts: Counts | None) -> Callable:
        tracer = self

        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                if tracer.section is None:
                    return await fn(*args, **kwargs)
                span, token = tracer._open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(span, token)
                if counts is not None:
                    span.counts = counts(args, result)
                return result
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if tracer.section is None:
                    return fn(*args, **kwargs)
                span, token = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(span, token)
                if counts is not None:
                    span.counts = counts(args, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def adopt_orphans(self, sections: set[str]) -> None:
        """Give each parentless span in ``sections`` its innermost
        time-containing span as parent (see the module docstring)."""
        spans = sorted(
            (s for s in self.spans if s.section in sections),
            key=lambda s: (s.start, -s.end),
        )
        open_spans: list[Span] = []
        for span in spans:
            while open_spans and open_spans[-1].end < span.end:
                open_spans.pop()
            if span.parent is None and open_spans:
                span.parent = open_spans[-1]
            open_spans.append(span)

    def self_seconds(self) -> dict[int, float]:
        """Return ``id(span) -> self time``: the span's duration minus
        the part of it that its child spans cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        out: dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            edge = span.start
            for child in sorted(children.get(id(span), ()), key=lambda s: s.start):
                lo = max(edge, child.start)
                hi = min(span.end, child.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[id(span)] = span.seconds - covered
        return out

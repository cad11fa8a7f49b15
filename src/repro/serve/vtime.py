"""An event loop whose clock is a counter: serving on virtual time.

The selector polls the real sockets with a zero timeout first and, only
when nothing is ready, moves the clock to the next timer.  Loopback TCP
keeps real sockets and framing, every timer fires at the virtual
instant it was set for, and compute costs no time (a test models it
with :meth:`VirtualTimeLoop.advance`), so a serving bench run is the
same run on any machine.  The loop starts no thread.
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Any, Coroutine, TypeVar

T = TypeVar("T")


class _VirtualSelector(selectors.DefaultSelector):
    def __init__(self, loop: "VirtualTimeLoop") -> None:
        super().__init__()
        self._loop = loop

    def select(self, timeout: float | None = None) -> list:
        ready = super().select(0)
        if ready or timeout == 0:
            return ready
        if timeout is None:  # no timer pending: only real I/O can wake us
            return super().select(None)
        self._loop.advance(timeout)
        return []


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """A selector event loop on a virtual clock that starts at zero."""

    def __init__(self) -> None:
        self._now = 0.0
        super().__init__(_VirtualSelector(self))

    def time(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward ``seconds`` without yielding."""
        if seconds < 0:
            raise ValueError(f"cannot move the clock back by {seconds}")
        self._now += seconds


def run(main: Coroutine[Any, Any, T]) -> T:
    """Run ``main`` on a fresh :class:`VirtualTimeLoop`; clean up as
    ``asyncio.run`` does (cancel leftover tasks, shut down async
    generators, close the loop)."""
    loop = VirtualTimeLoop()
    try:
        asyncio.set_event_loop(loop)
        return loop.run_until_complete(main)
    finally:
        try:
            leftover = asyncio.all_tasks(loop)
            for task in leftover:
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(*leftover, return_exceptions=True)
            )
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            asyncio.set_event_loop(None)
            loop.close()


__all__ = ["VirtualTimeLoop", "run"]

"""The buffering frame splitter: what cut frames out of a stream before.

How ``repro.serve.protocol.FrameSplitter`` cut a stream before a frame
that spans chunks was assembled by one join: every chunk that found an
unfinished frame waiting was appended to one ``bytearray`` tail, and each
payload was copied out of the tail (or out of the chunk, when nothing
was waiting).  Kept word for word, on the package's own prefix check, as
the oracle of the splitter: fed the same chunks and consumed the same
way, both must yield the same payloads, raise at the same frame with the
same message and report the same ``torn()`` after every chunk
(``tests/serve/test_frame_trains.py``).
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import FrontendError
from repro.serve.protocol import (
    _LEN,
    MAX_FRAME_BYTES,
    _payload_length,
    _torn,
)


class BufferingFrameSplitter:
    """Cuts frames out of a stream, buffering every unfinished one."""

    __slots__ = ("max_frame_bytes", "_tail")

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._tail = bytearray()

    def split(self, data: bytes) -> Iterator[bytes]:
        tail = self._tail
        if tail:
            tail += data
            data = tail
        at, end = 0, len(data)
        try:
            with memoryview(data) as view:
                while end - at >= _LEN.size:
                    start = at + _LEN.size
                    stop = start + _payload_length(
                        data, at, self.max_frame_bytes
                    )
                    if stop > end:
                        break
                    at = stop
                    yield bytes(view[start:stop])
        finally:
            if data is tail:
                del tail[:at]
            elif at < end:
                with memoryview(data) as view:
                    tail += view[at:]

    def torn(self) -> FrontendError | None:
        held = len(self._tail)
        if held == 0:
            return None
        if held < _LEN.size:
            return _torn("prefix", held, _LEN.size)
        (length,) = _LEN.unpack_from(self._tail)
        return _torn("frame", held - _LEN.size, length)

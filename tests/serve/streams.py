"""The framing over an ``asyncio.StreamReader`` / ``StreamWriter`` pair.

One frame a call, awaited: how every connection read and wrote before a
connection was a :class:`~repro.serve.protocol.FramedConnection`.
Nothing in the package uses these; stub peers do (a server that records
what it was sent, a client that hand-feeds a reader), and
:func:`read_payload` is the splitter's independent oracle in
``test_frame_trains.py``.  They share the package's prefix check and its
torn-stream messages, so a stream means the same thing to both.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.serve import protocol


async def read_payload(
    reader: asyncio.StreamReader,
    *,
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
) -> bytes | None:
    """Read one frame's payload from ``reader``; ``None`` on clean EOF.

    EOF in the middle of a frame (after the prefix, or mid-payload) is a
    torn stream and raises :class:`~repro.errors.FrontendError`, and so
    does a length over ``max_frame_bytes``; after either the stream
    position is lost.
    """
    size = protocol._LEN.size
    try:
        prefix = await reader.readexactly(size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise protocol._torn("prefix", len(exc.partial), size) from exc
    length = protocol._payload_length(prefix, 0, max_frame_bytes)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise protocol._torn("frame", len(exc.partial), length) from exc


async def read_frame(
    reader: asyncio.StreamReader,
    *,
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
) -> dict[str, Any] | None:
    """Read and decode one frame; ``None`` on clean EOF."""
    payload = await read_payload(reader, max_frame_bytes=max_frame_bytes)
    return None if payload is None else protocol.decode_frame(payload)


def write_frame(writer: asyncio.StreamWriter, message: dict[str, Any]) -> None:
    """Queue one frame on ``writer`` (callers await ``writer.drain()``)."""
    writer.write(protocol.encode_frame(message))

"""Length-prefixed wire protocol for the serving frontend.

Every message — request or response — is one *frame*: a 4-byte
big-endian unsigned length followed by that many payload bytes.
Framing first, payload second: a reader never has to scan for
delimiters, partial reads resume cleanly, and a malformed payload
poisons only its own frame, not the stream position
(:func:`read_payload` raises for a torn or oversized frame,
:func:`decode_frame` for a bad payload; the server drops the peer on
the first and answers ``bad-request`` on the second).

Frame grammar::

    frame   = length payload
    length  = uint32, big-endian          ; len(payload) <= MAX_FRAME_BYTES
    payload = json | result
    json    = "{" ... "}"                 ; one UTF-8 JSON object
    result  = 0xB1 hlen header block
    hlen    = uint32, big-endian          ; len(header)
    header  = "{" ... "}"                 ; one UTF-8 JSON object
    block   = "WIX1" ...                  ; the rest of the payload

     0        4    5        9          9+hlen              4+length
     +--------+----+--------+----------+-------------------+
     | length |0xB1|  hlen  |  header  |   WIX1 block      |
     +--------+----+--------+----------+-------------------+

Requests, error responses and the ``ping`` / ``stats`` replies are
``json`` frames.  Requests carry ``id`` (client-chosen correlation
number), ``op`` (``probe`` / ``scan`` / ``ping`` / ``stats``), an
optional ``tenant`` (admission control's rate-limit key, default
``"default"``) and optional ``deadline_ms`` (propagated through the
admission pipeline), plus the op's arguments (``value``/``t1``/``t2``).
A ``json`` response echoes the ``id`` with either ``ok: true`` and a
``result`` or ``ok: false`` and an ``error`` object carrying the
machine-readable rejection ``code``
(:class:`~repro.errors.RequestRejected`).

A probe or scan answer is a ``result`` frame, and there is no other way
to send one.  Its header holds ``id``, ``ok``, ``kind``, ``seconds``,
``indexes_probed`` / ``indexes_scanned``, ``covered_days`` and
``missing_days`` (day sets as sorted lists); its block is the answer's
entries exactly as :func:`repro.index.codec.encode_entries` would write
them, 32 bytes an entry.  In Python a result message is the header dict
with the block under ``"entries"``.

The block is the answer on both sides.  :func:`result_to_wire` joins the
encoded record runs of the buckets a probe was answered from (a result
remembers which slices of which :class:`~repro.index.kernels.Run` it is,
and a run encodes itself once per mutation of its bucket); a result
without that provenance — empty, merged, degraded, pool-carrying, any
scan — is encoded from its entries, and the bytes are the same either
way.  :func:`result_from_wire` checks the block completely and returns
the :class:`~repro.core.queries.ProbeResult` /
:class:`~repro.core.queries.ScanResult` an in-process caller gets, with
``entries`` an :class:`~repro.index.codec.EntryBlock` over the block:
equal to the tuple, which it builds only if an entry is asked for, so
after the call nothing about the frame can raise any more.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any

from ..core.queries import ProbeResult, ScanResult
from ..errors import FrontendError
from ..index import codec

#: Frame length prefix: 4-byte big-endian unsigned.
_LEN = struct.Struct(">I")

#: First payload byte of a result frame.  Not a byte UTF-8 text can
#: start with, so no JSON payload is ever mistaken for one.
RESULT_MARKER = b"\xb1"

#: Length prefix, marker and header length of a result frame.
_RESULT_HEAD = struct.Struct(">IcI")

#: Payload bytes before a result frame's header: marker and ``hlen``.
_RESULT_HEADER_AT = _RESULT_HEAD.size - _LEN.size

#: Default ceiling on one frame's payload; a peer announcing more is
#: treated as a protocol violation, not an allocation request.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Operations the server accepts.
OPS = ("probe", "scan", "ping", "stats")

#: Result class -> (kind, name of its index-count field), and back.
_RESULT_FIELDS = {
    ProbeResult: ("probe", "indexes_probed"),
    ScanResult: ("scan", "indexes_scanned"),
}
_RESULT_KINDS = {
    kind: (cls, field) for cls, (kind, field) in _RESULT_FIELDS.items()
}

# One encoder and one decoder for every frame: ``json.dumps`` with
# non-default separators builds a fresh ``JSONEncoder`` per call, which
# on a small frame costs as much as the encoding.
_encode_json = json.JSONEncoder(
    separators=(",", ":"), ensure_ascii=False
).encode
_decode_json = json.JSONDecoder().decode


def _too_large(size: int) -> FrontendError:
    return FrontendError(
        f"frame of {size} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
    )


def encode_frame(message: dict[str, Any]) -> bytes:
    """Return ``message`` as one frame.

    A message with an ``"entries"`` block goes out as a result frame,
    any other as a JSON frame.
    """
    block = message.get("entries")
    if block is None:
        payload = _encode_json(message).encode("utf-8")
        if len(payload) > MAX_FRAME_BYTES:
            raise _too_large(len(payload))
        return _LEN.pack(len(payload)) + payload
    fields = {**message}
    del fields["entries"]
    header = _encode_json(fields).encode("utf-8")
    size = _RESULT_HEADER_AT + len(header) + len(block)
    if size > MAX_FRAME_BYTES:
        raise _too_large(size)
    return b"".join(
        (_RESULT_HEAD.pack(size, RESULT_MARKER, len(header)), header, block)
    )


def _load(text: bytes) -> dict[str, Any]:
    try:
        message = _decode_json(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrontendError(f"malformed frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise FrontendError(
            f"frame must decode to an object, got {type(message).__name__}"
        )
    return message


def decode_frame(payload: bytes) -> dict[str, Any]:
    """Decode one frame's payload into a message dict.

    A result frame's block is returned undecoded under ``"entries"``;
    :func:`result_from_wire` checks and decodes it.
    """
    if payload[:1] != RESULT_MARKER:
        return _load(payload)
    if len(payload) < _RESULT_HEADER_AT:
        raise FrontendError(
            f"malformed frame payload: {len(payload)}-byte result frame"
        )
    (header_len,) = _LEN.unpack_from(payload, 1)
    block_at = _RESULT_HEADER_AT + header_len
    if block_at > len(payload):
        raise FrontendError(
            f"malformed frame payload: {header_len}-byte header overruns "
            f"the {len(payload)}-byte frame"
        )
    message = _load(payload[_RESULT_HEADER_AT:block_at])
    message["entries"] = payload[block_at:]
    return message


async def read_payload(
    reader: asyncio.StreamReader,
    *,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> bytes | None:
    """Read one frame's payload from ``reader``; ``None`` on clean EOF.

    EOF in the middle of a frame (after the prefix, or mid-payload) is a
    torn stream and raises :class:`~repro.errors.FrontendError` — the
    peer vanished mid-message, which callers should not confuse with an
    orderly close between frames.  So does a length over
    ``max_frame_bytes``.  After either the stream position is lost.
    """
    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrontendError(
            f"stream closed mid-prefix ({len(exc.partial)}/4 bytes)"
        ) from exc
    (length,) = _LEN.unpack(prefix)
    if length > max_frame_bytes:
        raise FrontendError(
            f"peer announced a {length}-byte frame "
            f"(limit {max_frame_bytes})"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrontendError(
            f"stream closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from exc


async def read_frame(
    reader: asyncio.StreamReader,
    *,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> dict[str, Any] | None:
    """Read and decode one frame; ``None`` on clean EOF."""
    payload = await read_payload(reader, max_frame_bytes=max_frame_bytes)
    return None if payload is None else decode_frame(payload)


def write_frame(writer: asyncio.StreamWriter, message: dict[str, Any]) -> None:
    """Queue one frame on ``writer`` (callers await ``writer.drain()``)."""
    writer.write(encode_frame(message))


# ----------------------------------------------------------------------
# Result marshalling
# ----------------------------------------------------------------------


def _block(result: ProbeResult | ScanResult) -> bytes:
    """Return ``result.entries`` as one block.

    Joined from the cached record runs the entries were cut from when
    the result says which and every run has one, encoded from the
    entries otherwise — byte for byte the same block.
    """
    parts = getattr(result, "parts", None)  # only probes carry them
    if parts:
        chunks = []
        for run, lo, hi in parts:
            records = run.records()
            if records is None:
                break
            chunks.append(
                records[codec.RECORD_SIZE * lo : codec.RECORD_SIZE * hi]
            )
        else:
            return codec.join_records(chunks)
    return codec.encode_entries(result.entries)


def result_to_wire(result: ProbeResult | ScanResult) -> dict[str, Any]:
    """Marshal either result kind: header fields plus the entry block."""
    try:
        kind, indexes_field = _RESULT_FIELDS[type(result)]
    except KeyError:
        raise FrontendError(
            f"cannot marshal {type(result).__name__}"
        ) from None
    return {
        "kind": kind,
        "seconds": result.seconds,
        indexes_field: getattr(result, indexes_field),
        "covered_days": sorted(result.covered_days),
        "missing_days": sorted(result.missing_days),
        "entries": _block(result),
    }


def result_from_wire(wire: dict[str, Any]) -> ProbeResult | ScanResult:
    """Rebuild the result object a result message describes.

    Every check the block gets is made here
    (:func:`repro.index.codec.read_block`); reading the result's
    ``entries`` afterwards decodes, and cannot fail.
    """
    try:
        shape = _RESULT_KINDS.get(wire["kind"])
        if shape is not None:
            cls, indexes_field = shape
            return cls(
                codec.read_block(wire["entries"]),
                wire["seconds"],
                wire[indexes_field],
                frozenset(wire["covered_days"]),
                frozenset(wire["missing_days"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError: the codec's EntryCodecError, or a string pool that
        # is not UTF-8.
        raise FrontendError(f"malformed result payload: {exc}") from exc
    raise FrontendError(f"unknown result kind {wire['kind']!r}")


def error_response(
    request_id: Any, code: str, message: str
) -> dict[str, Any]:
    """Return the ``ok: false`` response frame body."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def ok_response(request_id: Any, result: Any) -> dict[str, Any]:
    """Return the ``ok: true`` JSON response frame body."""
    return {"id": request_id, "ok": True, "result": result}


def result_response(request_id: Any, wire: dict[str, Any]) -> dict[str, Any]:
    """Return the result message for :func:`result_to_wire`'s ``wire``."""
    return {"id": request_id, "ok": True, **wire}


__all__ = [
    "MAX_FRAME_BYTES",
    "OPS",
    "RESULT_MARKER",
    "decode_frame",
    "encode_frame",
    "error_response",
    "ok_response",
    "read_frame",
    "read_payload",
    "result_from_wire",
    "result_response",
    "result_to_wire",
    "write_frame",
]

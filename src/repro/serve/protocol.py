"""Length-prefixed wire protocol for the serving frontend.

Every message — request or response — is one *frame*: a 4-byte
big-endian unsigned length followed by that many payload bytes.
Framing first, payload second: a reader never has to scan for
delimiters, partial reads resume cleanly, and a malformed payload
poisons only its own frame, not the stream position
(:class:`FrameSplitter` raises for an oversized frame and reports a torn
one, :func:`decode_frame` raises for a bad payload; the server drops the
peer on the first and answers ``bad-request`` on the second).

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

Frames travel in trains.  A connection on either side is a
:class:`FramedConnection`: whatever the transport hands
``data_received`` — half a frame, one, or the sixteen requests of
sixteen callers — goes through one :class:`FrameSplitter`, which cuts
out every complete payload and keeps only an unfinished tail; frames
going out are queued on the connection and handed to the transport once
per loop turn, so the answers of one dispatched batch leave in one
``send()`` (:meth:`FramedConnection.send` says which frames do not wait
for the turn).  The bytes on the wire are the same frames in the same
order either way.  :func:`read_payload` / :func:`read_frame` /
:func:`write_frame` are the same framing over an
:class:`asyncio.StreamReader` / ``StreamWriter`` pair, one frame a
call: nothing in the package uses them, tests and stub peers do.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Iterator

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


# ----------------------------------------------------------------------
# Framing: the splitter, the connection, the stream adapters
# ----------------------------------------------------------------------


def _payload_length(buffer: Any, at: int, max_frame_bytes: int) -> int:
    """Return the payload length the prefix at ``buffer[at:]`` announces.

    The one place an incoming prefix is read and held against the limit.
    """
    (length,) = _LEN.unpack_from(buffer, at)
    if length > max_frame_bytes:
        raise FrontendError(
            f"peer announced a {length}-byte frame "
            f"(limit {max_frame_bytes})"
        )
    return length


def _torn(what: str, held: int, of: int) -> FrontendError:
    return FrontendError(f"stream closed mid-{what} ({held}/{of} bytes)")


class FrameSplitter:
    """Cuts the frames out of a byte stream, however it was chunked.

    :meth:`split` takes the next chunk and yields the payload of every
    frame it completes; the bytes of an unfinished frame wait for the
    next chunk.  A payload is copied once, out of the chunk itself when
    nothing was waiting, so a large frame costs what ``readexactly``
    charged for it and a chunk of small ones costs no buffer at all.
    """

    __slots__ = ("max_frame_bytes", "_tail")

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._tail = bytearray()

    def split(self, data: bytes) -> Iterator[bytes]:
        """Yield the payload of each frame ``data`` completes, in order.

        A prefix over ``max_frame_bytes`` raises
        :class:`~repro.errors.FrontendError` once the frames before it
        have been yielded; the stream position is then lost.
        """
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
            # Also reached when the consumer stops early: what was
            # yielded is never yielded again.
            if data is tail:
                del tail[:at]
            elif at < end:
                with memoryview(data) as view:
                    tail += view[at:]

    def torn(self) -> FrontendError | None:
        """Return what an end of stream here tears; ``None`` between frames."""
        held = len(self._tail)
        if held == 0:
            return None
        if held < _LEN.size:
            return _torn("prefix", held, _LEN.size)
        (length,) = _LEN.unpack_from(self._tail)
        return _torn("frame", held - _LEN.size, length)


#: A frame up to this size joins the train, one ``write`` for all of
#: them; a larger one is handed to the transport as it is, because the
#: join would copy it, and a copy of a 256 KB scan answer costs more
#: than the ``send()`` it saves.
TRAIN_FRAME_BYTES = 4096


class FramedConnection(asyncio.Protocol):
    """One TCP connection, either side: frames split in, trains out.

    A subclass says what a payload means (:meth:`payload_received`) and
    what a stream that stopped being frames costs (:meth:`stream_torn`).
    Nothing is awaited per frame in either direction: the payloads of
    one ``data_received`` are handled in arrival order, and
    :meth:`send` queues — the queue goes to the transport in one piece
    at the end of the loop turn (:meth:`send` says which frames do not
    wait for that).
    """

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.transport: asyncio.Transport  # from connection_made on
        #: Done once the transport has let go of the socket.
        self.closed: asyncio.Future = self._loop.create_future()
        self._splitter = FrameSplitter()
        self._outbox: list[bytes] = []

    def payload_received(self, payload: bytes) -> None:
        raise NotImplementedError

    def stream_torn(self, exc: FrontendError) -> None:
        raise NotImplementedError

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def connection_lost(self, exc: Exception | None) -> None:
        self._outbox.clear()
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        try:
            for payload in self._splitter.split(data):
                self.payload_received(payload)
        except FrontendError as exc:
            self.stream_torn(exc)

    def eof_received(self) -> None:
        torn = self._splitter.torn()
        if torn is not None:
            self.stream_torn(torn)
        # Returning None closes the transport: this protocol has no
        # half-closed conversations.

    def send(self, frame: bytes, *, alone: bool = False) -> None:
        """Queue ``frame``; it leaves with the rest of this loop turn's.

        Two kinds of frame do not wait, because no train can help them.
        One over ``TRAIN_FRAME_BYTES`` is never joined, so holding it
        would only keep a large buffer alive for a loop turn longer: it
        goes to the transport now, after what was queued before it.
        And when the caller knows that nothing else is in flight on the
        connection (``alone``), there is nothing to share a write with.
        """
        if len(frame) > TRAIN_FRAME_BYTES:
            self.flush()
            if not self.transport.is_closing():
                self.transport.write(frame)
            return
        self._outbox.append(frame)
        if alone:
            self.flush()
        elif len(self._outbox) == 1:
            self._loop.call_soon(self.flush)

    def flush(self) -> None:
        """Hand the queued frames to the transport as one write.

        A transport that is closing takes nothing more (it would drop
        the bytes and log the attempt), so the queue is dropped here.
        """
        frames, self._outbox = self._outbox, []
        if frames and not self.transport.is_closing():
            self.transport.write(b"".join(frames))

    def close(self) -> None:
        """Flush, then close: what was queued still reaches the peer."""
        self.flush()
        self.transport.close()


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
        raise _torn("prefix", len(exc.partial), _LEN.size) from exc
    length = _payload_length(prefix, 0, max_frame_bytes)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise _torn("frame", len(exc.partial), length) from exc


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
    "FrameSplitter",
    "FramedConnection",
    "MAX_FRAME_BYTES",
    "OPS",
    "RESULT_MARKER",
    "TRAIN_FRAME_BYTES",
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

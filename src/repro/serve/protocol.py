"""Length-prefixed wire protocol for the serving frontend.

Every message — request or response — is one *frame*: a 4-byte
big-endian unsigned length followed by that many payload bytes.
Framing first, payload second: a reader never has to scan for
delimiters, partial reads resume cleanly, and a malformed payload
poisons only its own frame, not the stream position
(:class:`FrameSplitter` raises for an oversized frame and reports a torn
one, :func:`decode_frame` raises for a bad payload; the server drops the
peer on the first and answers ``bad-request`` on the second).

Frame grammar (every integer and float big-endian, like the length)::

    frame   = length payload
    length  = u32                         ; len(payload) <= MAX_FRAME_BYTES
    payload = json | request | result     ; told apart by the first byte
    json    = "{" ... "}"                 ; one UTF-8 JSON object
    request = 0xC0 op:u8 flags:u8 id:u64 t1:i64 t2:i64 deadline_ms:f64
              tenant_len:u16 value_tag:u8 value_len:u32 tenant value
    result  = 0xC1 kind:u8 id:u64 seconds:f64 indexes:u32
              n_covered:u16 n_missing:u16 days block
    days    = i64 * (n_covered + n_missing)
    block   = "WIX1" ...                  ; the rest of the payload

A request payload is 42 bytes and the two texts they announce::

    offset  bytes  field
         0      1  marker       0xC0
         1      1  op           1 probe, 2 scan
         2      1  flags        bit 0: deadline_ms is meant; the rest 0
         3      8  id           u64, the client's correlation number
        11      8  t1           i64, first day
        19      8  t2           i64, last day
        27      8  deadline_ms  f64; 0.0 and unread without flags bit 0
        35      2  tenant_len   u16
        37      1  value_tag    how value is written, below
        38      4  value_len    u32
        42      .  tenant       UTF-8, tenant_len bytes
         .      .  value        value_len bytes, to the end of the payload

    value_tag  value
            0  none: a scan, value_len 0
            1  a str, as UTF-8
            2  an int that fits int64, as 8 bytes
            3  anything else JSON carries (float, bool, None, a bigger
               int), as UTF-8 JSON text

"No deadline" is a flag, never a magic float, and a deadline is a number
that is not NaN (:func:`check_deadline`).  The tags keep ``1``, ``True``,
``1.0`` and ``"1"`` the types they left as: the directory is keyed by
them.  The two lengths add up to the payload exactly.

A result payload is 26 bytes, the days they count, and the block::

    offset  bytes  field
         0      1  marker       0xC1
         1      1  kind         1 a probe's answer, 2 a scan's
         2      8  id           u64, the request's
        10      8  seconds      f64
        18      4  indexes      u32, indexes_probed / indexes_scanned
        22      2  n_covered    u16
        24      2  n_missing    u16
        26      .  days         i64 each: the covered days, sorted, then
                                the missing days, sorted
         .      .  block        to the end of the payload

The block is the answer's entries exactly as
:func:`repro.index.codec.encode_entries` would write them (its own
layout, little-endian, 32 bytes an entry).  Neither marker is a byte
UTF-8 text can hold, so no JSON payload is mistaken for either shape,
and neither is ``0xB1``, the marker of the JSON-headed result frame this
layout replaced: such a frame is a malformed payload, not a different
answer.

A probe or scan is a ``request`` frame and its answer a ``result``
frame, and there is no other way to send either.  ``ping``, ``stats``,
their replies and every error response are ``json`` frames: they are
rare, ``stats`` has no schema to lay out, and an error's message is
text.  A ``json`` request carries ``id`` (client-chosen correlation
number) and ``op``; a ``json`` response echoes the ``id`` with either
``ok: true`` and a ``result`` or ``ok: false`` and an ``error`` object
carrying the machine-readable rejection ``code``
(:class:`~repro.errors.RequestRejected`).

In Python every payload is a dict, whatever its shape on the wire.
:func:`decode_frame` returns a request as ``id``, ``op`` (``"probe"`` /
``"scan"``), ``t1``, ``t2``, ``tenant`` (admission control's rate-limit
key; ``"default"`` when the sender named none), ``deadline_ms``
(``None`` without one; propagated through the admission pipeline) and,
for a probe, ``value``; a result as ``id``, ``ok``, ``kind``,
``seconds``, ``indexes_probed`` / ``indexes_scanned``, ``covered_days``,
``missing_days`` (tuples of days) and the undecoded block under
``"entries"``.  :func:`encode_frame` takes the same dicts.  Both check
before they slice or pack: every announced length is held against the
payload, every code against the table, every text against UTF-8, and
whatever is wrong is a :class:`~repro.errors.FrontendError` — from
:func:`encode_frame` a ``bad-request`` the caller gets before anything
is sent, from :func:`decode_frame` a malformed payload the server
answers ``bad-request``, under the request's ``id`` whenever the 42
bytes that hold it arrived (:func:`request_id_of`).

The block is the answer on both sides.  :func:`result_to_wire` joins the
encoded record runs the answer was cut from (a result remembers which
slices of which :class:`~repro.index.kernels.Run` it is: the buckets a
probe read, or the day run of a one-day scan; a run encodes itself once
per mutation of its bucket or sweep); a result without that provenance
— empty, merged, degraded, pool-carrying, a scan over several days of
one constituent — is encoded from its entries, and the bytes are the
same either way.  :func:`decode_frame` hands the block on as a
``memoryview`` of the payload, and :func:`result_from_wire` checks it
there, completely, and returns the
:class:`~repro.core.queries.ProbeResult` /
:class:`~repro.core.queries.ScanResult` an in-process caller gets, with
``entries`` an :class:`~repro.index.codec.EntryBlock` over one copy of
the record words: equal to the tuple, which it builds only if an entry
is asked for, so after the call nothing about the frame can raise any
more.

Frames travel in trains.  A connection on either side is a
:class:`FramedConnection`: whatever the transport hands
``data_received`` — half a frame, one, or the sixteen requests of
sixteen callers — goes through one :class:`FrameSplitter`, which cuts
out every complete payload and keeps only an unfinished tail; frames
going out are queued on the connection and handed to the transport once
per loop turn, so the answers of one dispatched batch leave in one
``send()`` (:meth:`FramedConnection.send` says which frames do not wait
for the turn).  The bytes on the wire are the same frames in the same
order either way.
"""

from __future__ import annotations

import asyncio
import json
import struct
from functools import lru_cache
from typing import Any, Iterator

from ..core.queries import ProbeResult, ScanResult
from ..errors import FrontendError
from ..index import codec

#: Frame length prefix: 4-byte big-endian unsigned.
_LEN = struct.Struct(">I")

#: First payload byte of a request frame and of a result frame.  Bytes
#: no UTF-8 text holds anywhere, so no JSON payload starts with one.
REQUEST_MARKER = b"\xc0"
RESULT_MARKER = b"\xc1"

#: What a request payload starts with: marker, op, flags, id, t1, t2,
#: deadline_ms, tenant_len, value_tag, value_len — and the same behind
#: the frame's length, which is how it is written.
_REQUEST_FORMAT = "cBBQqqdHBI"
_REQUEST_HEAD = struct.Struct(">" + _REQUEST_FORMAT)
_REQUEST_FRAME_HEAD = struct.Struct(">I" + _REQUEST_FORMAT)

#: What a result payload starts with: marker, kind, id, seconds,
#: indexes, n_covered, n_missing — and the same behind the length.
_RESULT_FORMAT = "cBQdIHH"
_RESULT_HEAD = struct.Struct(">" + _RESULT_FORMAT)
_RESULT_FRAME_HEAD = struct.Struct(">I" + _RESULT_FORMAT)

#: The one request flag: ``deadline_ms`` is meant.
_HAS_DEADLINE = 0x01

#: Value tags of a request, and an int64 value.
_NO_VALUE, _STR_VALUE, _INT_VALUE, _JSON_VALUE = range(4)
_INT64 = struct.Struct(">q")

#: Default ceiling on one frame's payload; a peer announcing more is
#: treated as a protocol violation, not an allocation request.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Operations the server accepts.
OPS = ("probe", "scan", "ping", "stats")

#: Op of a request and kind of the result that answers it -> their wire
#: code, the result class, the name of its index-count field.
_KINDS = {
    "probe": (1, ProbeResult, "indexes_probed"),
    "scan": (2, ScanResult, "indexes_scanned"),
}
_KIND_OF_CODE = {code: kind for kind, (code, _, _) in _KINDS.items()}
_RESULT_FIELDS = {
    cls: (kind, field) for kind, (_, cls, field) in _KINDS.items()
}

# One encoder and one decoder for every JSON frame: ``json.dumps`` with
# non-default separators builds a fresh ``JSONEncoder`` per call, which
# on a small frame costs as much as the encoding.
_encode_json = json.JSONEncoder(
    separators=(",", ":"), ensure_ascii=False
).encode
_decode_json = json.JSONDecoder().decode


# ----------------------------------------------------------------------
# What a request must be, on any path
# ----------------------------------------------------------------------


def check_deadline(deadline: Any) -> None:
    """Raise unless ``deadline`` is a number and not NaN.

    NaN compares false with every clock, so it would never expire; a
    negative deadline has expired, ``inf`` never will — both are numbers.
    """
    if not isinstance(deadline, (int, float)) or deadline != deadline:
        raise FrontendError(f"deadline {deadline!r} is not a number")


def check_range(t1: int, t2: int) -> None:
    """Raise for an empty range of days.

    A property of one request: checked before admission, so that it
    cannot fail the batch the request would have been coalesced into.
    """
    if t1 > t2:
        raise FrontendError(f"empty time range [{t1}, {t2}]")


# ----------------------------------------------------------------------
# Payloads: dict in, bytes out, and back
# ----------------------------------------------------------------------


def _checked_size(size: int) -> int:
    """Return ``size``, the payload length of a frame about to be built."""
    if size > MAX_FRAME_BYTES:
        raise FrontendError(
            f"frame of {size} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return size


def _malformed(what: Any) -> FrontendError:
    return FrontendError(f"malformed frame payload: {what}")


def encode_frame(message: dict[str, Any]) -> bytes:
    """Return ``message`` as one frame.

    A message with an ``"entries"`` block goes out as a result frame, a
    probe or scan as a request frame, any other as a JSON frame.
    """
    block = message.get("entries")
    if block is not None:
        return _result_frame(message, block)
    op = message.get("op")
    if op == "probe" or op == "scan":
        return _request_frame(message, op)
    payload = _encode_json(message).encode("utf-8")
    return _LEN.pack(_checked_size(len(payload))) + payload


def _value_bytes(value: Any) -> tuple[int, bytes]:
    """Return the tag ``value`` travels under, and its bytes."""
    cls = type(value)
    if cls is str:
        return _STR_VALUE, value.encode("utf-8")
    if cls is int and -(2**63) <= value < 2**63:
        return _INT_VALUE, _INT64.pack(value)
    return _JSON_VALUE, _encode_json(value).encode("utf-8")


def _request_frame(message: dict[str, Any], op: str) -> bytes:
    request_id, t1, t2 = message.get("id"), message.get("t1"), message.get("t2")
    tenant = message.get("tenant", "default")
    deadline_ms = message.get("deadline_ms")
    try:
        if op == "probe":
            tag, value = _value_bytes(message["value"])
        else:
            tag, value = _NO_VALUE, b""
        if deadline_ms is None:
            flags, deadline_ms = 0, 0.0
        else:
            check_deadline(deadline_ms)
            flags = _HAS_DEADLINE
        if not isinstance(tenant, str):
            raise TypeError("the tenant is not a str")
        tenant_bytes = tenant.encode("utf-8")
        head = _REQUEST_FRAME_HEAD.pack(
            _checked_size(_REQUEST_HEAD.size + len(tenant_bytes) + len(value)),
            REQUEST_MARKER, _KINDS[op][0], flags, request_id, t1, t2,
            deadline_ms, len(tenant_bytes), tag, len(value),
        )
    except (
        FrontendError, KeyError, TypeError, ValueError, OverflowError,
        struct.error,
    ) as exc:
        # ValueError: a str that is not Unicode text, a value that
        # refers to itself.  KeyError: a probe without a value.
        raise FrontendError(
            f"bad-request: no request frame holds {op} id={request_id!r} "
            f"t1={t1!r} t2={t2!r} tenant={tenant!r}: {exc!r}"
        ) from exc
    return b"".join((head, tenant_bytes, value))


def _result_frame(message: dict[str, Any], block: bytes) -> bytes:
    try:
        code, _, indexes_field = _KINDS[message["kind"]]
        covered, missing = message["covered_days"], message["missing_days"]
        days = struct.pack(
            ">%dq" % (len(covered) + len(missing)), *covered, *missing
        )
        size = _checked_size(_RESULT_HEAD.size + len(days) + len(block))
        head = _RESULT_FRAME_HEAD.pack(
            size, RESULT_MARKER, code, message["id"], message["seconds"],
            message[indexes_field], len(covered), len(missing),
        )
    except (KeyError, TypeError, OverflowError, struct.error) as exc:
        raise FrontendError(
            f"no result frame holds this answer: {exc!r}"
        ) from exc
    return b"".join((head, days, block))


def _parse_json(text: bytes) -> Any:
    try:
        return _decode_json(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise _malformed(exc) from exc


def decode_frame(payload: bytes) -> dict[str, Any]:
    """Decode one frame's payload into a message dict.

    A result frame's block is returned undecoded under ``"entries"``;
    :func:`result_from_wire` checks and decodes it.
    """
    marker = payload[:1]
    if marker == REQUEST_MARKER:
        return _decode_request(payload)
    if marker == RESULT_MARKER:
        return _decode_result(payload)
    message = _parse_json(payload)
    if not isinstance(message, dict):
        raise FrontendError(
            f"frame must decode to an object, got {type(message).__name__}"
        )
    return message


def _decode_value(tag: int, raw: bytes) -> Any:
    if tag == _STR_VALUE:
        return raw.decode("utf-8")
    if tag == _INT_VALUE:
        if len(raw) != _INT64.size:
            raise _malformed(f"a {len(raw)}-byte int64 value")
        return _INT64.unpack(raw)[0]
    if tag == _JSON_VALUE:
        value = _parse_json(raw)
        if isinstance(value, (list, dict)):
            # Unhashable: the directory would raise for the whole batch.
            raise _malformed(f"a {type(value).__name__} is no probe value")
        return value
    raise _malformed(f"unknown value tag {tag}")


def _decode_request(payload: bytes) -> dict[str, Any]:
    size = len(payload)
    if size < _REQUEST_HEAD.size:
        raise _malformed(f"{size}-byte request frame")
    (
        _, code, flags, request_id, t1, t2, deadline_ms,
        tenant_len, tag, value_len,
    ) = _REQUEST_HEAD.unpack_from(payload)
    value_at = _REQUEST_HEAD.size + tenant_len
    if value_at + value_len != size:
        raise _malformed(
            f"a {tenant_len}-byte tenant and a {value_len}-byte value do "
            f"not make a {size}-byte request frame"
        )
    op = _KIND_OF_CODE.get(code)
    if op is None:
        raise _malformed(f"unknown op code {code}")
    if flags == 0:
        deadline_ms = None
    elif flags == _HAS_DEADLINE:
        check_deadline(deadline_ms)
    else:
        raise _malformed(f"unknown request flags {flags:#04x}")
    try:
        message = {
            "id": request_id, "op": op, "t1": t1, "t2": t2,
            "tenant": payload[_REQUEST_HEAD.size : value_at].decode("utf-8"),
            "deadline_ms": deadline_ms,
        }
        if op == "probe":
            message["value"] = _decode_value(tag, payload[value_at:])
        elif tag != _NO_VALUE or value_len:
            raise _malformed("a scan request with a value")
    except UnicodeDecodeError as exc:
        raise _malformed(exc) from exc
    return message


@lru_cache(maxsize=256)
def _days(n_days: int) -> struct.Struct:
    """Return the layout of a result frame's ``n_days`` days.

    Compiled once per count: building the format on every frame cost a
    small answer more than handing its block on as a view does.
    """
    return struct.Struct(">%dq" % n_days)


def _decode_result(payload: bytes) -> dict[str, Any]:
    size = len(payload)
    if size < _RESULT_HEAD.size:
        raise _malformed(f"{size}-byte result frame")
    (
        _, code, request_id, seconds, indexes, n_covered, n_missing
    ) = _RESULT_HEAD.unpack_from(payload)
    n_days = n_covered + n_missing
    block_at = _RESULT_HEAD.size + _INT64.size * n_days
    if block_at > size:
        raise _malformed(
            f"{n_days} days overrun the {size}-byte result frame"
        )
    kind = _KIND_OF_CODE.get(code)
    if kind is None:
        raise _malformed(f"unknown result kind code {code}")
    days = _days(n_days).unpack_from(payload, _RESULT_HEAD.size)
    return {
        "id": request_id,
        "ok": True,
        "kind": kind,
        "seconds": seconds,
        _KINDS[kind][2]: indexes,
        "covered_days": days[:n_covered],
        "missing_days": days[n_covered:],
        # A view: the block is checked where it lies, not copied first.
        "entries": memoryview(payload)[block_at:],
    }


def request_id_of(payload: bytes) -> int | None:
    """Return the ``id`` of a request payload whose head arrived whole.

    For answering a request :func:`decode_frame` refused: whatever is
    wrong after the head, the caller that sent it is still waiting.
    """
    if payload[:1] == REQUEST_MARKER and len(payload) >= _REQUEST_HEAD.size:
        return _REQUEST_HEAD.unpack_from(payload)[3]
    return None


# ----------------------------------------------------------------------
# Framing: the splitter and the connection
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
    frame it completes, as ``bytes``; the bytes of an unfinished frame
    wait for the next chunk.  A payload is copied once: out of the chunk
    itself when the frame came in one, else by one join of the pieces
    of the chunks that carried it.  Until then a piece is held as a view
    of its chunk, not copied, so a 256 KB scan answer that arrives in
    two segments costs about what one in one segment does.  A chunk is
    read in place, so it must not change after the call (a transport
    hands ``data_received`` a fresh ``bytes`` each time).
    """

    __slots__ = ("max_frame_bytes", "_held", "_size")

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        #: The stream from the first frame not yet yielded on, as views
        #: of the chunks that carried it, and its length in bytes.
        self._held: list[memoryview] = []
        self._size = 0

    def split(self, data: bytes) -> Iterator[bytes]:
        """Yield the payload of each frame ``data`` completes, in order.

        A prefix over ``max_frame_bytes`` raises
        :class:`~repro.errors.FrontendError` once the frames before it
        have been yielded; the stream position is then lost.
        """
        held, at, first = self._held, 0, None
        if held:
            # Held first, so that nothing is lost if the prefix raises.
            before = self._size
            held.append(memoryview(data))
            self._size += len(data)
            if self._size < _LEN.size:
                return
            stop = _LEN.size + _payload_length(
                self._prefix(), 0, self.max_frame_bytes
            )
            if stop > self._size:
                return
            if stop > before:
                # ``data`` completes the held frame: its payload is the
                # held pieces after the prefix and the head of ``data``;
                # the rest of ``data`` goes through the loop below.
                at = stop - before
                held[-1] = held[-1][:at]
                first = self._payload()
            else:
                # Whole frames were held: a consumer stopped early.
                data = b"".join(held)
            held.clear()
            self._size = 0
        end = len(data)
        view = memoryview(data)
        try:
            if first is not None:
                yield first
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
            if at < end:
                held.append(view[at:])
                self._size = end - at

    def _prefix(self) -> bytes | memoryview:
        """Return the first four held bytes, wherever the chunks cut them."""
        prefix = self._held[0]
        if len(prefix) < _LEN.size:
            prefix = b""
            for piece in self._held:
                prefix += piece[: _LEN.size - len(prefix)]
                if len(prefix) == _LEN.size:
                    break
        return prefix

    def _payload(self) -> bytes:
        """Return the held frame's payload: one join of its pieces."""
        skip, pieces = _LEN.size, []
        for piece in self._held:
            if skip >= len(piece):
                skip -= len(piece)
            else:
                pieces.append(piece[skip:])
                skip = 0
        return b"".join(pieces)

    def torn(self) -> FrontendError | None:
        """Return what an end of stream here tears; ``None`` between frames."""
        held = self._size
        if held == 0:
            return None
        if held < _LEN.size:
            return _torn("prefix", held, _LEN.size)
        (length,) = _LEN.unpack_from(self._prefix())
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


# ----------------------------------------------------------------------
# Result marshalling
# ----------------------------------------------------------------------


def _block(result: ProbeResult | ScanResult) -> bytes:
    """Return ``result.entries`` as one block.

    Joined from the cached record runs the entries were cut from when
    the result says which and every run has one, encoded from the
    entries otherwise — byte for byte the same block.
    """
    parts = result.parts
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
        shape = _KINDS.get(wire["kind"])
        if shape is not None:
            _, cls, indexes_field = shape
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
    "REQUEST_MARKER",
    "RESULT_MARKER",
    "TRAIN_FRAME_BYTES",
    "check_deadline",
    "check_range",
    "decode_frame",
    "encode_frame",
    "error_response",
    "ok_response",
    "request_id_of",
    "result_from_wire",
    "result_response",
    "result_to_wire",
]

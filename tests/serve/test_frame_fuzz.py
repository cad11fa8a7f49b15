"""Binary frames under fuzz: exact round trips, and damage that fails loudly.

Four contracts.  Any :class:`ProbeResult` / :class:`ScanResult` survives
``encode_frame`` → ``read_frame`` → ``result_from_wire`` unchanged,
whatever its infos and size, and any request survives ``encode_frame`` →
``decode_frame`` with equal fields of equal types.  No damaged result
frame — truncated, a bit flipped, a length field lying — gets out of
``read_frame`` / ``result_from_wire`` as anything but a clean EOF, a
(possibly wrong) result, or :class:`FrontendError`: a client must never
see a ``struct.error`` or a ``UnicodeDecodeError`` from a bad peer; and
once ``result_from_wire`` has returned, reading the result — its entries
are decoded on access — cannot fail either.  No damaged request frame
gets the server to raise, to drop the peer or to start a task for
something that is no request: it is answered ``bad-request``, under the
request's ``id`` whenever the head that holds it arrived.  And no
well-framed JSON response, whatever the types of its fields, kills the
client's connection without settling the caller it left waiting.
"""

import asyncio
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queries import ProbeResult, ScanResult
from repro.errors import FrontendError, TransportError
from repro.index import codec
from repro.index.entry import Entry
from repro.serve import protocol
from repro.serve import client as client_module
from repro.serve import server as server_module
from repro.serve.client import FrontendClient
from repro.serve.server import FrontendServer

from .conftest import (
    RecordingTransport,
    raw_frame,
    read_from,
    request_frame,
    split_frames,
)

int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
batch_infos = st.one_of(st.none(), int64s)
any_infos = st.one_of(
    st.none(),
    int64s,
    st.integers(min_value=2**63, max_value=2**80),  # pool-backed big int
    st.floats(allow_nan=False),
    st.text(max_size=12),
)


def entry_tuples(infos):
    entry = st.builds(Entry, int64s, int64s, infos)
    few = st.lists(entry, max_size=2)  # 0, 1 and 2 entries
    hundreds = st.builds(
        lambda base, times: base * times,
        st.lists(entry, min_size=1, max_size=6),
        st.integers(min_value=40, max_value=100),
    )
    return st.one_of(few, hundreds).map(tuple)


days = st.frozensets(st.integers(min_value=0, max_value=400), max_size=8)
results = st.builds(
    lambda cls, *fields: cls(*fields),
    st.sampled_from((ProbeResult, ScanResult)),
    st.one_of(entry_tuples(batch_infos), entry_tuples(any_infos)),
    st.floats(min_value=0.0, allow_infinity=False),
    st.integers(min_value=0, max_value=64),
    days,
    days,
)


def frame_of(result, request_id=5) -> bytes:
    return protocol.encode_frame(
        protocol.result_response(request_id, protocol.result_to_wire(result))
    )


def receive(data: bytes):
    """``read_frame`` then ``result_from_wire`` on a closed stream."""
    message = asyncio.run(read_from(data))
    return None if message is None else protocol.result_from_wire(message)


def receive_damaged(data: bytes) -> None:
    try:
        got = receive(data)
    except FrontendError:
        return
    if got is not None:
        # Whatever got through was checked whole: reading it cannot raise.
        assert len(list(got.entries)) == len(got.entries) == len(got.record_ids)
        assert all(type(e) is Entry for e in got.entries)


SAMPLE = ProbeResult(
    (Entry(4, 2, None), Entry(9, 3, 17), Entry(11, 3, "héllo"), Entry(12, 4, 2**70)),
    0.25, 3, frozenset({2, 3, 4}), frozenset({5}),
)


@given(results)
@settings(max_examples=60, deadline=None)
def test_results_round_trip_exactly(result):
    got = receive(frame_of(result))
    assert type(got) is type(result)
    assert got == result
    assert [type(e.info) for e in got.entries] == [
        type(e.info) for e in result.entries
    ]
    assert all(type(e) is Entry for e in got.entries)
    assert got.record_ids == result.record_ids
    assert hash(got) == hash(result)
    assert repr(got.entries) == repr(result.entries)


def test_the_block_on_the_wire_is_the_codecs_unmodified():
    frame = frame_of(SAMPLE)
    assert frame.endswith(codec.encode_entries_object(SAMPLE.entries))


def test_every_truncation_is_a_torn_stream():
    frame = frame_of(SAMPLE)
    assert receive(b"") is None  # clean EOF between frames
    for cut in range(1, len(frame)):
        with pytest.raises(FrontendError, match="mid-"):
            receive(frame[:cut])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_a_flipped_bit_raises_frontend_error_or_nothing(data):
    frame = bytearray(frame_of(SAMPLE))
    position = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    frame[position] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
    receive_damaged(bytes(frame))


def test_every_single_bit_flip_of_a_small_frame():
    frame = frame_of(
        ProbeResult((Entry(1, 2, "x"),), 0.5, 1, frozenset({2}), frozenset())
    )
    for position in range(len(frame)):
        for bit in range(8):
            damaged = bytearray(frame)
            damaged[position] ^= 1 << bit
            receive_damaged(bytes(damaged))


WIX1_HEADER = struct.Struct("<4sQQ")  # magic, count, pool length


def relaid(head: struct.Struct, names: tuple, payload: bytes, **lies) -> bytes:
    """``payload`` with the named fields of its head overwritten."""
    fields = dict(zip(names, head.unpack_from(payload)))
    fields.update(lies)
    return head.pack(*fields.values()) + payload[head.size :]


RESULT_HEAD = struct.Struct(">cBQdIHH")
RESULT_FIELDS = (
    "marker", "kind", "id", "seconds", "indexes", "n_covered", "n_missing",
)


def split(frame: bytes) -> tuple[bytes, bytes]:
    """Return ``(header, block)`` of a result frame: head and days, block."""
    *_, n_covered, n_missing = RESULT_HEAD.unpack_from(frame, 4)
    block_at = 4 + RESULT_HEAD.size + 8 * (n_covered + n_missing)
    return frame[4:block_at], frame[block_at:]


def build(header: bytes, block: bytes, **lies: int) -> bytes:
    """The frame of ``header`` and ``block``, head fields overwritten."""
    return raw_frame(relaid(RESULT_HEAD, RESULT_FIELDS, header, **lies) + block)


class TestLyingLengths:
    """The header of a result frame is as long as its day counts say."""

    def test_rebuilt_frame_is_the_original(self):
        frame = frame_of(SAMPLE)
        assert build(*split(frame)) == frame
        assert len(split(frame)[0]) == 26 + 8 * 4

    def test_header_length_overrunning_the_frame(self):
        header, block = split(frame_of(SAMPLE))
        room = len(block) // 8  # days the block's bytes could pass for
        for lie in ({"n_covered": 3 + room + 1}, {"n_missing": 1 + room + 1},
                    {"n_covered": 2**16 - 1, "n_missing": 2**16 - 1}):
            with pytest.raises(FrontendError, match="overrun"):
                receive(build(header, block, **lie))

    def test_header_length_cutting_the_header_short(self):
        # A day is read as the start of the block.
        header, block = split(frame_of(SAMPLE))
        for lie in ({"n_missing": 0}, {"n_covered": 1}, {"n_covered": 0, "n_missing": 0}):
            with pytest.raises(FrontendError, match="malformed"):
                receive(build(header, block, **lie))

    def test_header_length_swallowing_the_block(self):
        # The block's first bytes are read as days.
        header, block = split(frame_of(SAMPLE))
        for lie in ({"n_missing": 2}, {"n_covered": 4}, {"n_covered": 3 + len(block) // 8}):
            with pytest.raises(FrontendError, match="malformed"):
                receive(build(header, block, **lie))

    def test_day_counts_that_only_disagree_on_whose_days_they_are(self):
        # Same sum: every byte is where it was, one day changes sets.
        header, block = split(frame_of(SAMPLE))
        got = receive(build(header, block, n_covered=2, n_missing=2))
        assert got.entries == SAMPLE.entries
        assert (got.covered_days, got.missing_days) == ({2, 3}, {4, 5})

    def test_result_frame_too_short_for_its_own_header_length(self):
        header, _ = split(frame_of(SAMPLE))
        for payload in (b"\xc1", b"\xc1\x01\x00", header[:25], header[:26], header[:-1]):
            with pytest.raises(FrontendError, match="malformed"):
                receive(raw_frame(payload))

    def test_unknown_kind_code(self):
        header, block = split(frame_of(SAMPLE))
        for kind in (0, 3, 255):
            with pytest.raises(FrontendError, match="unknown result kind"):
                receive(build(header, block, kind=kind))

    @pytest.mark.parametrize("delta", (-1, 1, 2**40))
    def test_wix1_count_disagreeing_with_the_block_length(self, delta):
        header, block = split(frame_of(SAMPLE))
        magic, count, pool_len = WIX1_HEADER.unpack_from(block)
        lying = (
            WIX1_HEADER.pack(magic, count + delta, pool_len)
            + block[WIX1_HEADER.size :]
        )
        with pytest.raises(FrontendError, match="block length"):
            receive(build(header, lying))

    def test_wix1_pool_length_lying(self):
        header, block = split(frame_of(SAMPLE))
        magic, count, pool_len = WIX1_HEADER.unpack_from(block)
        lying = (
            WIX1_HEADER.pack(magic, count, pool_len + 1)
            + block[WIX1_HEADER.size :]
        )
        with pytest.raises(FrontendError, match="block length"):
            receive(build(header, lying))

    def test_block_missing_or_not_wix1(self):
        header, block = split(frame_of(SAMPLE))
        for bad in (b"", block[:10], b"XIW1" + block[4:]):
            with pytest.raises(FrontendError, match="malformed"):
                receive(build(header, bad))

    def test_pool_that_is_not_utf8(self):
        header, _ = split(frame_of(SAMPLE))
        block = bytearray(codec.encode_entries_object([Entry(1, 1, "ab")]))
        block[-2:] = b"\xff\xfe"
        with pytest.raises(FrontendError, match="malformed"):
            receive(build(header, bytes(block)))

    def test_outer_length_shorter_than_the_payload(self):
        frame = frame_of(SAMPLE)
        (length,) = struct.unpack_from(">I", frame)
        with pytest.raises(FrontendError):
            receive(struct.pack(">I", length - 1) + frame[4:])


# ----------------------------------------------------------------------
# The request direction: exact round trips, and what the server makes of
# damage
# ----------------------------------------------------------------------

probe_values = st.one_of(
    st.text(max_size=12),  # non-ASCII too
    st.sampled_from((-(2**63), -1, 0, 1, 2**63 - 1)),
    int64s,
    st.integers(min_value=2**63, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63) - 1),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)
requests = st.fixed_dictionaries(
    {
        "id": st.one_of(st.sampled_from((0, 2**64 - 1)), st.integers(0, 2**64 - 1)),
        "t1": int64s,
        "t2": int64s,
        "tenant": st.text(max_size=12),
        "deadline_ms": st.one_of(st.none(), st.floats(allow_nan=False)),
    }
).flatmap(
    lambda fields: st.one_of(
        st.just({**fields, "op": "scan"}),
        probe_values.map(lambda v: {**fields, "op": "probe", "value": v}),
    )
)


@given(requests)
@settings(max_examples=300, deadline=None)
def test_requests_round_trip_with_equal_fields_of_equal_types(message):
    frame = protocol.encode_frame(message)
    assert frame[4:5] == protocol.REQUEST_MARKER
    assert struct.unpack(">I", frame[:4]) == (len(frame) - 4,)
    got = protocol.decode_frame(frame[4:])
    assert got == message
    assert {k: type(v) for k, v in got.items()} == {
        k: type(v) for k, v in message.items()
    }
    assert protocol.request_id_of(frame[4:]) == message["id"]


def test_one_and_its_lookalikes_arrive_as_what_they_left_as():
    for value in (1, True, 1.0, "1", 0, False, 0.0, "", None):
        frame = request_frame(1, "probe", value=value)
        got = protocol.decode_frame(frame[4:])["value"]
        assert got == value and type(got) is type(value)


REQUEST_HEAD = struct.Struct(">cBBQqqdHBI")
REQUEST_FIELDS = (
    "marker", "op", "flags", "id", "t1", "t2", "deadline_ms",
    "tenant_len", "tag", "value_len",
)
REQUEST_ID = 0x0102030405060708
PROBE = request_frame(
    REQUEST_ID, "probe", value="wörd", t1=1, t2=7, tenant="tenañt",
    deadline_ms=60_000.0,
)[4:]
SCAN = request_frame(REQUEST_ID, "scan", t1=1, t2=7)[4:]


def rebuilt(payload: bytes, tail: bytes | None = None, **lies) -> bytes:
    """``payload`` with head fields overwritten and, if given, a new tail."""
    if tail is not None:
        payload = payload[: REQUEST_HEAD.size] + tail
    return relaid(REQUEST_HEAD, REQUEST_FIELDS, payload, **lies)


class StubBackend:
    """Answers every spec with an empty result; keeps what it was asked."""

    def __init__(self) -> None:
        self.specs: list[tuple] = []

    def probe_many(self, specs):
        self.specs.extend(specs)
        return [ProbeResult((), 0.0, 0, frozenset(), frozenset()) for _ in specs]

    def scan_many(self, specs):
        self.specs.extend(specs)
        return [ScanResult((), 0.0, 0, frozenset(), frozenset()) for _ in specs]


def offer(payloads: list[bytes]) -> list[tuple[dict, int]]:
    """Hand each payload, well framed, to a server connection.

    Returns, per payload, the one answer it got and how many tasks it
    started; asserts that nothing raised and the peer was kept.
    """

    async def scenario():
        backend = StubBackend()
        server = FrontendServer(None, backend=backend)
        server.controller.start()
        connection = server_module._Connection(server)
        transport = RecordingTransport()
        connection.connection_made(transport)
        outcomes = []
        try:
            for payload in payloads:
                tasks = len(asyncio.all_tasks())
                connection.data_received(raw_frame(payload))  # never raises
                started = len(asyncio.all_tasks()) - tasks
                assert started == len(connection.requests)
                while connection.requests:
                    await asyncio.wait(connection.requests)
                await asyncio.sleep(0)  # the outbox leaves with the turn
                assert not transport.closing
                (answer,) = split_frames(b"".join(transport.writes))
                transport.writes.clear()
                outcomes.append((answer, started))
            return outcomes, backend.specs
        finally:
            connection.connection_lost(None)
            await server.controller.drain(1.0)

    return asyncio.run(asyncio.wait_for(scenario(), 60.0))


def refused(outcomes, request_id=REQUEST_ID) -> list[str]:
    """Assert every outcome a task-less ``bad-request``; return the messages."""
    for answer, started in outcomes:
        assert started == 0
        assert not answer["ok"] and answer["error"]["code"] == "bad-request"
        assert answer["id"] == request_id
    return [answer["error"]["message"] for answer, _ in outcomes]


class TestDamagedRequests:
    def test_the_undamaged_requests_are_served(self):
        outcomes, specs = offer([PROBE, SCAN])
        assert [(a["id"], a["ok"], a["kind"], n) for a, n in outcomes] == [
            (REQUEST_ID, True, "probe", 1), (REQUEST_ID, True, "scan", 1),
        ]
        assert specs == [("wörd", 1, 7), (1, 7)]
        assert rebuilt(PROBE) == PROBE and rebuilt(SCAN) == SCAN

    @pytest.mark.parametrize("payload", [PROBE, SCAN], ids=["probe", "scan"])
    def test_every_truncation_is_refused_under_its_id_once_the_head_is_in(
        self, payload
    ):
        cuts = range(1, len(payload))
        outcomes, specs = offer([payload[:cut] for cut in cuts])
        assert specs == []
        for cut, outcome in zip(cuts, outcomes):
            (message,) = refused(
                [outcome], REQUEST_ID if cut >= REQUEST_HEAD.size else None
            )
            assert "malformed frame payload" in message

    @pytest.mark.parametrize("payload", [PROBE, SCAN], ids=["probe", "scan"])
    def test_every_single_bit_flip_is_refused_or_is_another_request(self, payload):
        flips = [
            (position, bit) for position in range(len(payload)) for bit in range(8)
        ]
        damaged = []
        for position, bit in flips:
            flipped = bytearray(payload)
            flipped[position] ^= 1 << bit
            damaged.append(bytes(flipped))
        outcomes, _ = offer(damaged)
        served = 0
        for (position, bit), flipped, (answer, started) in zip(flips, damaged, outcomes):
            head = dict(zip(REQUEST_FIELDS, REQUEST_HEAD.unpack_from(flipped)))
            if position == 0:
                # No request frame any more: nothing says whose it was.
                refused([(answer, started)], None)
            elif started:
                # Still a request, for something else or from someone else.
                served += 1
                assert answer["id"] == head["id"]
                assert answer["ok"] or answer["error"]["code"] == "deadline-expired"
            else:
                refused([(answer, started)], head["id"])
        # Most flips of an id, a day, a deadline or a letter are requests.
        assert len(flips) // 3 < served < len(flips)

    def test_lying_lengths(self):
        tenant, value = "tenañt".encode(), "wörd".encode()
        lies = [
            {"tenant_len": len(tenant) + 1}, {"tenant_len": len(tenant) - 1},
            {"tenant_len": 2**16 - 1}, {"tenant_len": 0},
            {"value_len": len(value) + 1}, {"value_len": len(value) - 1},
            {"value_len": 2**32 - 1}, {"value_len": 0},
            {"tenant_len": 0, "value_len": 0},
        ]
        outcomes, specs = offer([rebuilt(PROBE, **lie) for lie in lies])
        assert specs == []
        assert all("do not make" in message for message in refused(outcomes))

    def test_lengths_that_add_up_and_still_lie(self):
        # The boundary between tenant and value moved into a letter.
        tenant, value = "tenañt".encode(), "wörd".encode()
        moved = [
            {"tenant_len": len(tenant) - 2, "value_len": len(value) + 2},
            {"tenant_len": len(tenant) + 2, "value_len": len(value) - 2},
        ]
        outcomes, specs = offer([rebuilt(PROBE, **lie) for lie in moved])
        assert specs == []
        assert all("utf-8" in message for message in refused(outcomes))

    def test_trailing_bytes(self):
        outcomes, specs = offer([PROBE + b"\x00", SCAN + b"x", PROBE + PROBE])
        assert specs == []
        assert all("do not make" in message for message in refused(outcomes))

    def test_unknown_codes(self):
        damaged = [
            ("unknown op code 0", rebuilt(PROBE, op=0)),
            ("unknown op code 3", rebuilt(PROBE, op=3)),
            ("unknown op code 255", rebuilt(SCAN, op=255)),
            ("unknown value tag 4", rebuilt(PROBE, tag=4)),
            ("unknown value tag 255", rebuilt(PROBE, tag=255)),
            ("unknown value tag 0", rebuilt(PROBE, tag=0)),
            ("unknown request flags 0x02", rebuilt(PROBE, flags=2)),
            ("unknown request flags 0x81", rebuilt(SCAN, flags=0x81)),
            ("a scan request with a value", rebuilt(SCAN, tag=1)),
        ]
        outcomes, specs = offer([payload for _, payload in damaged])
        assert specs == []
        for (expected, _), message in zip(damaged, refused(outcomes)):
            assert expected in message

    def test_a_probe_sent_as_a_scan_and_a_scan_sent_as_a_probe(self):
        outcomes, specs = offer([rebuilt(PROBE, op=2), rebuilt(SCAN, op=1)])
        assert specs == []
        first, second = refused(outcomes)
        assert "a scan request with a value" in first
        assert "unknown value tag 0" in second

    def test_values_that_are_not_what_their_tag_says(self):
        def probe(tag: int, value: bytes) -> bytes:
            return rebuilt(
                PROBE, "tenañt".encode() + value, tag=tag, value_len=len(value)
            )

        damaged = [
            ("utf-8", probe(1, b"\xff\xfe")),
            ("utf-8", probe(1, "wörd".encode()[:2])),
            ("7-byte int64", probe(2, b"\x00" * 7)),
            ("9-byte int64", probe(2, b"\x00" * 9)),
            ("0-byte int64", probe(2, b"")),
            ("Expecting value", probe(3, b"")),
            ("Expecting value", probe(3, b"nope")),
            ("Extra data", probe(3, b"1 2")),
            ("utf-8", probe(3, b'"\xff"')),
            ("no probe value", probe(3, b"[1,2]")),
            ("no probe value", probe(3, b'{"a":1}')),
            ("recursion", probe(3, b"[" * 100_000)),
        ]
        outcomes, specs = offer([payload for _, payload in damaged])
        assert specs == []
        for (expected, _), message in zip(damaged, refused(outcomes)):
            assert expected in message
        # ... and the same bytes under the right tag are values.
        outcomes, specs = offer(
            [probe(1, b""), probe(2, b"\xff" * 8), probe(3, b"1.5"), probe(3, b'"x"')]
        )
        assert [value for value, _, _ in specs] == ["", -1, 1.5, "x"]

    def test_a_tenant_that_is_not_utf8(self):
        tail = b"\xff\xfe" + "wörd".encode()
        outcomes, specs = offer([rebuilt(PROBE, tail, tenant_len=2)])
        assert specs == []
        assert "utf-8" in refused(outcomes)[0]

    def test_deadlines_that_are_no_deadline_and_ranges_that_are_empty(self):
        outcomes, specs = offer([
            rebuilt(PROBE, deadline_ms=float("nan")),
            rebuilt(SCAN, flags=1, deadline_ms=float("nan")),
            rebuilt(PROBE, t1=7, t2=1),
            rebuilt(SCAN, t1=2, t2=1),
        ])
        assert specs == []
        nan_probe, nan_scan, empty_probe, empty_scan = refused(outcomes)
        assert "not a number" in nan_probe and "not a number" in nan_scan
        assert "empty time range [7, 1]" in empty_probe
        assert "empty time range [2, 1]" in empty_scan
        # Without the flag the field is not read; inf is a deadline.
        outcomes, specs = offer([
            rebuilt(PROBE, flags=0, deadline_ms=float("nan")),
            rebuilt(PROBE, deadline_ms=float("inf")),
            rebuilt(SCAN, t1=3, t2=3),
        ])
        assert [(a["ok"], n) for a, n in outcomes] == [(True, 1)] * 3
        assert len(specs) == 3


# ----------------------------------------------------------------------
# The response direction: what a client makes of ill-typed responses
# ----------------------------------------------------------------------

json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
        st.text(max_size=6),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(("code", "message", "id", "x")), inner, max_size=3),
    ),
    max_leaves=6,
)
responses = st.fixed_dictionaries(
    {},
    optional={
        "id": st.one_of(st.just(1), json_values),
        "ok": json_values,
        "error": json_values,
        "result": json_values,
    },
)


@given(st.lists(st.one_of(responses, json_values), max_size=4))
@settings(max_examples=200, deadline=None)
def test_no_json_response_kills_the_reader_or_strands_a_caller(messages):
    frames = b"".join(
        struct.pack(">I", len(payload)) + payload
        for payload in (
            protocol._encode_json(message).encode("utf-8") for message in messages
        )
    )

    async def scenario():
        client = FrontendClient()
        caller = asyncio.get_running_loop().create_future()
        client._pending[1] = caller
        connection = client._connection = client_module._Connection(client)
        connection.connection_made(RecordingTransport())
        # Returns — never raises — at EOF or at the first violation.
        connection.data_received(frames)
        assert connection.eof_received() is None  # so the transport closes
        connection.connection_lost(None)
        assert caller.done() and not client._pending and client._connection is None
        error = caller.exception()
        assert error is None or isinstance(error, FrontendError)
        routable = [
            m for m in messages
            if isinstance(m, dict) and m.get("id") in (1, 1.0, True)
            and type(m.get("id")) in (int, float, bool)
        ]
        if error is None:
            assert caller.result() is not None and caller.result().get("ok")
        elif not routable:
            assert isinstance(error, TransportError)

    asyncio.run(scenario())

"""Result frames under fuzz: exact round trips, and damage that fails loudly.

Imports only pytest, hypothesis, the standard library and the package,
so the numpy-less CI leg runs it with the rest of tier-1.

Three contracts.  Any :class:`ProbeResult` / :class:`ScanResult` survives
``encode_frame`` → ``read_frame`` → ``result_from_wire`` unchanged,
whatever its infos and size.  No damaged frame — truncated, a bit
flipped, a length field lying — gets out of ``read_frame`` /
``result_from_wire`` as anything but a clean EOF, a (possibly wrong)
result, or :class:`FrontendError`: a client must never see a
``struct.error`` or a ``UnicodeDecodeError`` from a bad peer; and once
``result_from_wire`` has returned, reading the result — its entries are
decoded on access — cannot fail either.  In the other direction, no
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
from repro.serve.client import FrontendClient

from .conftest import RecordingTransport, read_from

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


def split(frame: bytes) -> tuple[bytes, bytes]:
    """Return ``(header, block)`` of a result frame."""
    (header_len,) = struct.unpack_from(">I", frame, 5)
    return frame[9 : 9 + header_len], frame[9 + header_len :]


def build(header: bytes, block: bytes, header_len: int | None = None) -> bytes:
    payload = (
        protocol.RESULT_MARKER
        + struct.pack(">I", len(header) if header_len is None else header_len)
        + header
        + block
    )
    return struct.pack(">I", len(payload)) + payload


class TestLyingLengths:
    def test_rebuilt_frame_is_the_original(self):
        frame = frame_of(SAMPLE)
        assert build(*split(frame)) == frame

    def test_header_length_overrunning_the_frame(self):
        header, block = split(frame_of(SAMPLE))
        for lie in (len(header) + len(block) + 1, 2**32 - 1):
            with pytest.raises(FrontendError, match="overruns"):
                receive(build(header, block, header_len=lie))

    def test_header_length_cutting_the_header_short(self):
        header, block = split(frame_of(SAMPLE))
        with pytest.raises(FrontendError, match="malformed"):
            receive(build(header, block, header_len=len(header) - 3))

    def test_header_length_swallowing_the_block(self):
        header, block = split(frame_of(SAMPLE))
        with pytest.raises(FrontendError, match="malformed"):
            receive(build(header, block, header_len=len(header) + 8))

    def test_result_frame_too_short_for_its_own_header_length(self):
        for payload in (b"\xb1", b"\xb1\x00\x00"):
            with pytest.raises(FrontendError, match="malformed"):
                receive(struct.pack(">I", len(payload)) + payload)

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

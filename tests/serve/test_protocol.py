"""Wire-protocol tests: framing, marshalling, and torn streams."""

import asyncio
import struct

import pytest

from repro.core.queries import ProbeResult, ScanResult
from repro.errors import FrontendError
from repro.index import codec
from repro.index.entry import Entry
from repro.serve import protocol

from . import streams
from .conftest import feed_reader, read_from


def run(coro):
    return asyncio.run(coro)


class TestFraming:
    def test_round_trip(self):
        message = {"id": 7, "op": "probe", "value": 3, "t1": 1, "t2": 5}
        frame = protocol.encode_frame(message)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        # Every field of the layout comes back, the unsent ones as what
        # their absence meant.
        assert protocol.decode_frame(frame[4:]) == {
            **message, "tenant": "default", "deadline_ms": None,
        }

    def test_json_round_trip(self):
        message = {"id": 7, "op": "stats", "nested": {"a": [1, 2.5, None]}}
        frame = protocol.encode_frame(message)
        assert frame[4:5] == b"{"
        assert protocol.decode_frame(frame[4:]) == message

    def test_read_frame_round_trip(self):
        message = {"id": 1, "ok": True, "result": "pong"}
        assert run(read_from(protocol.encode_frame(message))) == message

    def test_multiple_frames_in_sequence(self):
        a, b = {"id": 1}, {"id": 2}

        async def read_two():
            reader = feed_reader(
                protocol.encode_frame(a) + protocol.encode_frame(b)
            )
            return (
                await streams.read_frame(reader),
                await streams.read_frame(reader),
                await streams.read_frame(reader),
            )

        first, second, third = run(read_two())
        assert (first, second) == (a, b)
        assert third is None  # clean EOF between frames

    def test_clean_eof_returns_none(self):
        assert run(read_from(b"")) is None

    def test_eof_mid_prefix_is_torn(self):
        with pytest.raises(FrontendError, match="mid-prefix"):
            run(read_from(b"\x00\x00"))

    def test_eof_mid_payload_is_torn(self):
        frame = protocol.encode_frame({"id": 1, "op": "ping"})
        with pytest.raises(FrontendError, match="mid-frame"):
            run(read_from(frame[:-3]))

    def test_oversized_announcement_rejected(self):
        huge = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(FrontendError, match="limit"):
            run(read_from(huge, eof=False))

    def test_malformed_json_rejected(self):
        with pytest.raises(FrontendError, match="malformed"):
            protocol.decode_frame(b"{nope")

    def test_non_object_payload_rejected(self):
        with pytest.raises(FrontendError, match="object"):
            protocol.decode_frame(b"[1, 2, 3]")

    def test_oversized_result_frame_rejected(self, monkeypatch):
        message = protocol.result_response(1, protocol.result_to_wire(
            ProbeResult(
                tuple(Entry(i, 1, None) for i in range(8)),
                0.0, 1, frozenset({1}), frozenset(),
            )
        ))
        monkeypatch.setattr(
            protocol, "MAX_FRAME_BYTES", len(protocol.encode_frame(message)) - 5
        )
        with pytest.raises(FrontendError, match="limit"):
            protocol.encode_frame(message)


def request(**fields):
    return {
        "id": 7, "op": "probe", "value": 3, "t1": 1, "t2": 5,
        "tenant": "t", "deadline_ms": None, **fields,
    }


class TestRequestFrames:
    @pytest.mark.parametrize(
        "fields",
        [
            {"t1": "not-a-day"}, {"t2": 1.5}, {"t1": None}, {"t1": 2**63},
            {"tenant": 5}, {"tenant": None}, {"tenant": "x" * 65536},
            {"tenant": "\ud800"},
            {"id": -1}, {"id": 2**64}, {"id": None}, {"id": "7"}, {"id": 1.0},
            {"value": object()}, {"value": "\ud800"}, {"value": {1, 2}},
            {"deadline_ms": "soon"}, {"deadline_ms": [1]},
            {"deadline_ms": float("nan")}, {"deadline_ms": 10**400},
            {"op": "scan", "t2": "x"},
        ],
        ids=repr,
    )
    def test_what_no_frame_holds_is_the_callers_bad_request(self, fields):
        with pytest.raises(FrontendError, match="^bad-request: "):
            protocol.encode_frame(request(**fields))

    def test_a_probe_without_a_value_is_a_bad_request(self):
        message = request()
        del message["value"]
        with pytest.raises(FrontendError, match="^bad-request: .*'value'"):
            protocol.encode_frame(message)

    def test_an_oversized_request_is_refused_before_it_is_sent(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        protocol.encode_frame(request(value="x" * 21))  # 42 + 1 + 21
        with pytest.raises(FrontendError, match="limit"):
            protocol.encode_frame(request(value="x" * 22))

    @pytest.mark.parametrize("deadline_ms", [-1.0, 0, 0.0, 250, float("inf")])
    def test_any_number_but_nan_is_a_deadline(self, deadline_ms):
        frame = protocol.encode_frame(request(deadline_ms=deadline_ms))
        got = protocol.decode_frame(frame[4:])["deadline_ms"]
        assert got == deadline_ms and type(got) is float

    def test_a_nan_deadline_is_refused_on_arrival_too(self):
        frame = bytearray(protocol.encode_frame(request(deadline_ms=1.0)))
        frame[4 + 27 : 4 + 35] = struct.pack(">d", float("nan"))
        with pytest.raises(FrontendError, match="not a number"):
            protocol.decode_frame(bytes(frame[4:]))
        # ... and is not read at all under a cleared flag.
        frame[4 + 2] = 0
        assert protocol.decode_frame(bytes(frame[4:]))["deadline_ms"] is None

    def test_the_predicates_every_path_shares(self):
        for deadline in (-5, 0.0, 1e9, float("inf"), float("-inf")):
            protocol.check_deadline(deadline)
        for deadline in ("soon", [1], None, float("nan"), 1j):
            with pytest.raises(FrontendError, match="not a number"):
                protocol.check_deadline(deadline)
        protocol.check_range(1, 1)
        protocol.check_range(-3, 7)
        with pytest.raises(FrontendError, match=r"empty time range \[7, 1\]"):
            protocol.check_range(7, 1)

    def test_a_value_the_directory_cannot_hash_is_refused_on_arrival(self):
        for value in ([1, 2], {"a": 1}):
            frame = protocol.encode_frame(request(value=value))
            with pytest.raises(FrontendError, match="no probe value"):
                protocol.decode_frame(frame[4:])

    def test_request_id_reads_a_whole_head_and_nothing_else(self):
        frame = protocol.encode_frame(request(id=2**64 - 2))
        payload = frame[4:]
        assert protocol.request_id_of(payload) == 2**64 - 2
        assert protocol.request_id_of(payload[:42]) == 2**64 - 2
        assert protocol.request_id_of(payload[:41]) is None
        assert protocol.request_id_of(b"") is None
        assert protocol.request_id_of(b'{"id":1}') is None
        assert protocol.request_id_of(b"\xc1" + payload[1:]) is None

    def test_a_frame_in_the_json_headed_layout_is_malformed(self):
        header = (
            b'{"id":7,"ok":true,"kind":"probe","seconds":0.25,'
            b'"indexes_probed":3,"covered_days":[2,3],"missing_days":[4]}'
        )
        block = codec.encode_entries_object((Entry(4, 2, None),))
        old = b"\xb1" + struct.pack(">I", len(header)) + header + block
        with pytest.raises(FrontendError, match="malformed frame payload"):
            protocol.decode_frame(old)


class TestResultMarshalling:
    def probe_result(self):
        return ProbeResult(
            (Entry(4, 2, "x"), Entry(9, 3, None)),
            0.25,
            3,
            frozenset({2, 3}),
            frozenset({4}),
        )

    def scan_result(self):
        return ScanResult(
            (Entry(1, 2, 7),),
            1.5,
            2,
            frozenset({2}),
            frozenset(),
        )

    def test_probe_round_trip(self):
        original = self.probe_result()
        rebuilt = protocol.result_from_wire(
            protocol.result_to_wire(original)
        )
        assert isinstance(rebuilt, ProbeResult)
        assert rebuilt == original

    def test_scan_round_trip(self):
        original = self.scan_result()
        rebuilt = protocol.result_from_wire(
            protocol.result_to_wire(original)
        )
        assert isinstance(rebuilt, ScanResult)
        assert rebuilt == original

    def test_result_frame_layout_is_pinned_byte_for_byte(self):
        wire = protocol.result_to_wire(self.probe_result())
        block = codec.encode_entries_object(self.probe_result().entries)
        assert wire == {
            "kind": "probe",
            "seconds": 0.25,
            "indexes_probed": 3,
            "covered_days": [2, 3],
            "missing_days": [4],
            "entries": block,
        }
        frame = protocol.encode_frame(protocol.result_response(7, wire))
        assert frame == b"".join((
            struct.pack(">I", 26 + 3 * 8 + len(block)),
            b"\xc1",                     # 0: marker
            struct.pack(">B", 1),        # 1: kind, a probe's answer
            struct.pack(">Q", 7),        # 2: id
            struct.pack(">d", 0.25),     # 10: seconds
            struct.pack(">I", 3),        # 18: indexes_probed
            struct.pack(">H", 2),        # 22: n_covered
            struct.pack(">H", 1),        # 24: n_missing
            struct.pack(">3q", 2, 3, 4),  # 26: covered then missing days
            block,
        ))
        # The block is the codec's, untouched: magic, count, pool
        # length, two 32-byte records, the one-byte string pool.
        assert block[:4] == b"WIX1"
        assert len(block) == codec.encoded_size(2, pool_bytes=1)
        assert frame.endswith(block)
        # A scan's answer differs in the kind code alone.
        scan = protocol.encode_frame(
            protocol.result_response(
                2**64 - 1, protocol.result_to_wire(self.scan_result())
            )
        )
        assert scan[4:30] == struct.pack(
            ">cBQdIHH", b"\xc1", 2, 2**64 - 1, 1.5, 2, 1, 0
        )
        assert scan[30:38] == struct.pack(">q", 2)

    def test_request_frame_layout_is_pinned_byte_for_byte(self):
        probe = protocol.encode_frame({
            "id": 7, "op": "probe", "value": "héllo", "t1": -1, "t2": 5,
            "tenant": "añb", "deadline_ms": 250.0,
        })
        tenant, value = "añb".encode("utf-8"), "héllo".encode("utf-8")
        assert probe == b"".join((
            struct.pack(">I", 42 + len(tenant) + len(value)),
            b"\xc0",                       # 0: marker
            struct.pack(">B", 1),          # 1: op, a probe
            struct.pack(">B", 0x01),       # 2: flags, a deadline follows
            struct.pack(">Q", 7),          # 3: id
            struct.pack(">q", -1),         # 11: t1
            struct.pack(">q", 5),          # 19: t2
            struct.pack(">d", 250.0),      # 27: deadline_ms
            struct.pack(">H", len(tenant)),  # 35: tenant_len
            struct.pack(">B", 1),          # 37: value tag, a str
            struct.pack(">I", len(value)),  # 38: value_len
            tenant,                        # 42
            value,
        ))

        def head(op, flags, deadline_ms, tag, value_len):
            return struct.pack(
                ">IcBBQqqdHBI", 42 + 7 + value_len, b"\xc0", op, flags,
                7, 1, 5, deadline_ms, 7, tag, value_len,
            ) + b"default"

        def frame(**fields):
            return protocol.encode_frame(
                {"id": 7, "t1": 1, "t2": 5, **fields}
            )

        # No deadline is a cleared flag over 0.0; an int64 is 8 bytes, a
        # value of any other type its JSON text; a scan has no value.
        assert frame(op="probe", value=-3) == (
            head(1, 0, 0.0, 2, 8) + struct.pack(">q", -3)
        )
        for value, text in (
            (2**63, b"9223372036854775808"), (True, b"true"),
            (None, b"null"), (1.5, b"1.5"),
        ):
            assert frame(op="probe", value=value) == (
                head(1, 0, 0.0, 3, len(text)) + text
            )
        assert frame(op="scan", deadline_ms=0) == head(2, 1, 0.0, 0, 0)
        assert frame(op="scan") == head(2, 0, 0.0, 0, 0)

    def test_markers_are_bytes_no_utf8_text_holds(self):
        for marker in (protocol.REQUEST_MARKER, protocol.RESULT_MARKER):
            assert len(marker) == 1 and marker != b"\xb1"
            for text in (marker, b"{" + marker, b"\xc3" + marker):
                with pytest.raises(UnicodeDecodeError):
                    text.decode("utf-8")

    def test_result_frame_round_trips_through_read_frame(self):
        for original in (self.probe_result(), self.scan_result()):
            message = protocol.result_response(
                11, protocol.result_to_wire(original)
            )
            received = run(read_from(protocol.encode_frame(message)))
            # Day sets come back as tuples; the sets made of them are equal.
            assert received == {
                **message,
                "covered_days": tuple(message["covered_days"]),
                "missing_days": tuple(message["missing_days"]),
            }
            assert protocol.result_from_wire(received) == original

    def test_json_replies_stay_json_frames(self):
        for message in (
            protocol.ok_response(1, "pong"),
            protocol.ok_response(2, {"counters": {}}),
            protocol.error_response(3, "shed-overload", "full"),
        ):
            assert protocol.encode_frame(message)[4:5] == b"{"

    def test_unknown_kind_rejected(self):
        wire = protocol.result_to_wire(self.probe_result())
        wire["kind"] = "mystery"
        with pytest.raises(FrontendError, match="mystery"):
            protocol.result_from_wire(wire)

    def test_malformed_payload_rejected(self):
        with pytest.raises(FrontendError, match="malformed"):
            protocol.result_from_wire({"kind": "probe"})


class TestResponses:
    def test_ok_response(self):
        assert protocol.ok_response(3, "pong") == {
            "id": 3, "ok": True, "result": "pong",
        }

    def test_error_response_carries_code(self):
        response = protocol.error_response(9, "shed-overload", "full")
        assert response["ok"] is False
        assert response["error"]["code"] == "shed-overload"
        assert response["id"] == 9

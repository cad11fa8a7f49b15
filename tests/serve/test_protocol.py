"""Wire-protocol tests: framing, marshalling, and torn streams."""

import asyncio
import struct

import pytest

from repro.core.queries import ProbeResult, ScanResult
from repro.errors import FrontendError
from repro.index import codec
from repro.index.entry import Entry
from repro.serve import protocol

from .conftest import feed_reader, read_from


def run(coro):
    return asyncio.run(coro)


class TestFraming:
    def test_round_trip(self):
        message = {"id": 7, "op": "probe", "value": 3, "t1": 1, "t2": 5}
        frame = protocol.encode_frame(message)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
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
                await protocol.read_frame(reader),
                await protocol.read_frame(reader),
                await protocol.read_frame(reader),
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
        header = (
            b'{"id":7,"ok":true,"kind":"probe","seconds":0.25,'
            b'"indexes_probed":3,"covered_days":[2,3],"missing_days":[4]}'
        )
        frame = protocol.encode_frame(protocol.result_response(7, wire))
        assert frame == b"".join((
            struct.pack(">I", 1 + 4 + len(header) + len(block)),
            b"\xb1",
            struct.pack(">I", len(header)),
            header,
            block,
        ))
        # The block is the codec's, untouched: magic, count, pool
        # length, two 32-byte records, the one-byte string pool.
        assert block[:4] == b"WIX1"
        assert len(block) == codec.encoded_size(2, pool_bytes=1)
        assert frame.endswith(block)

    def test_result_frame_round_trips_through_read_frame(self):
        for original in (self.probe_result(), self.scan_result()):
            message = protocol.result_response(
                11, protocol.result_to_wire(original)
            )
            received = run(read_from(protocol.encode_frame(message)))
            assert received == message
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

"""Responses a client cannot route: a protocol violation, never a hang.

A stub server answers well-framed JSON that is not a response to
anything — an ``id`` that cannot be a correlation number, an ``error``
that is no object, a payload that is no message.  The client must treat
each as a torn stream: every pending caller fails at once with the
retryable :class:`~repro.errors.TransportError` and the next call
reconnects.  A well-formed response to a request nobody is waiting for
is ignored and costs nothing.  Every scenario runs under a timeout: the
failure this guards against is a dead reader task and callers that wait
forever.
"""

import asyncio
import struct

import pytest

from repro.core.queries import ProbeResult, ScanResult
from repro.errors import FrontendError, TransportError
from repro.index import codec
from repro.index.entry import Entry
from repro.serve import is_retryable, protocol
from repro.serve.client import FrontendClient

from . import streams
from .conftest import json_frame, raw_frame

TIMEOUT_S = 5.0


async def with_stub(answer, scenario):
    """Run ``scenario(client)`` against a server that sends, for each
    request, the frames ``answer(request, n)`` returns (``n`` counts the
    requests the stub has seen, over all connections, from 0)."""
    seen = 0

    async def handle(reader, writer):
        nonlocal seen
        try:
            while (request := await streams.read_frame(reader)) is not None:
                frames = answer(request, seen)
                seen += 1
                writer.write(b"".join(frames))
                await writer.drain()
        except (ConnectionError, FrontendError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    client = await FrontendClient().connect("127.0.0.1", port)
    try:
        return await asyncio.wait_for(scenario(client), TIMEOUT_S)
    finally:
        await client.close()
        server.close()
        await server.wait_closed()


def pong(request) -> bytes:
    return json_frame(protocol.ok_response(request["id"], "pong"))


@pytest.mark.parametrize(
    "bad",
    [
        lambda request: {"id": [request["id"]], "ok": True},
        lambda request: {"id": {"n": request["id"]}, "ok": True, "result": "pong"},
        lambda request: {"id": request["id"], "ok": False, "error": "boom"},
        lambda request: {"id": request["id"], "ok": False, "error": ["code", "x"]},
        lambda request: {"id": request["id"], "ok": 0, "error": 7},
        lambda request: [request["id"], "pong"],
        lambda request: "pong",
        lambda request: None,
    ],
    ids=[
        "list-id", "dict-id", "str-error", "list-error", "int-error",
        "array-payload", "string-payload", "null-payload",
    ],
)
def test_unroutable_response_fails_the_caller_and_the_next_call_reconnects(bad):
    def answer(request, n):
        return [json_frame(bad(request))] if n == 0 else [pong(request)]

    async def scenario(client):
        with pytest.raises(TransportError) as caught:
            await client.ping()
        assert is_retryable(caught.value)
        assert client.reconnects == 0
        assert await client.ping() is True  # a fresh connection, lazily
        assert client.reconnects == 1

    asyncio.run(with_stub(answer, scenario))


def test_every_pending_caller_fails_at_once():
    def answer(request, n):
        # Nothing for the first two requests, then one unroutable frame.
        return [json_frame({"id": [1], "ok": True})] if n == 2 else []

    async def scenario(client):
        outcomes = await asyncio.gather(
            client.ping(), client.ping(), client.ping(), return_exceptions=True
        )
        assert [type(o) for o in outcomes] == [TransportError] * 3
        assert not client._pending

    asyncio.run(with_stub(answer, scenario))


@pytest.mark.parametrize("stray", [999_999, -1, "7", None, 1.5])
def test_response_to_an_unknown_id_is_ignored_and_the_connection_kept(stray):
    def answer(request, n):
        return [
            json_frame(protocol.ok_response(stray, "not yours")),
            json_frame(protocol.error_response(stray, "internal", "nor this")),
            pong(request),
        ]

    async def scenario(client):
        assert await client.ping() is True
        assert await client.ping() is True
        assert client.reconnects == 0

    asyncio.run(with_stub(answer, scenario))


def test_error_object_without_fields_is_still_a_clean_error():
    def answer(request, n):
        return [json_frame({"id": request["id"], "ok": False})]

    async def scenario(client):
        with pytest.raises(FrontendError, match="internal") as caught:
            await client.ping()
        assert not isinstance(caught.value, TransportError)
        assert client.reconnects == 0

    asyncio.run(with_stub(answer, scenario))


# ----------------------------------------------------------------------
# Answers that are well-formed frames and still not what was asked
# ----------------------------------------------------------------------

ENTRIES = (Entry(4, 2, None), Entry(9, 3, 17))
ANSWERS = {
    "probe": ProbeResult(ENTRIES, 0.25, 3, frozenset({2, 3}), frozenset({4})),
    "scan": ScanResult(ENTRIES, 0.5, 2, frozenset({2, 3}), frozenset()),
}


def result_frame(request, kind: str) -> bytes:
    return protocol.encode_frame(
        protocol.result_response(
            request["id"], protocol.result_to_wire(ANSWERS[kind])
        )
    )


def test_an_answer_of_the_wrong_kind_is_a_frontend_error_not_an_assertion():
    def answer(request, n):
        # A scan's answer to a probe and a probe's to a scan, then a
        # pong to each, then the right kinds.
        if n < 2:
            return [result_frame(request, "scan" if request["op"] == "probe" else "probe")]
        if n < 4:
            return [pong(request)]
        return [result_frame(request, request["op"])]

    async def scenario(client):
        for _ in range(2):
            with pytest.raises(FrontendError, match="a probe was answered") as caught:
                await client.probe(1, 1, 7)
            assert not isinstance(caught.value, (TransportError, AssertionError))
            with pytest.raises(FrontendError, match="a scan was answered"):
                await client.scan(1, 7)
        # The frames were well formed: the connection is the same one.
        assert await client.probe(1, 1, 7) == ANSWERS["probe"]
        assert await client.scan(1, 7) == ANSWERS["scan"]
        assert client.reconnects == 0

    asyncio.run(with_stub(answer, scenario))


def test_a_result_frame_in_the_json_headed_layout_is_a_torn_stream():
    header = (
        b'{"id":1,"ok":true,"kind":"probe","seconds":0.25,"indexes_probed":3,'
        b'"covered_days":[2,3],"missing_days":[4]}'
    )
    old_layout = raw_frame(
        b"\xb1" + struct.pack(">I", len(header)) + header
        + codec.encode_entries(ENTRIES)
    )

    def answer(request, n):
        return [old_layout] if n == 0 else [result_frame(request, "probe")]

    async def scenario(client):
        with pytest.raises(TransportError, match="malformed frame payload"):
            await client.probe(1, 1, 7)
        assert await client.probe(1, 1, 7) == ANSWERS["probe"]
        assert client.reconnects == 1

    asyncio.run(with_stub(answer, scenario))

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
import json
import struct

import pytest

from repro.errors import FrontendError, TransportError
from repro.serve import is_retryable, protocol
from repro.serve.client import FrontendClient

TIMEOUT_S = 5.0


def json_frame(message) -> bytes:
    """One JSON frame holding any JSON value, message or not."""
    payload = json.dumps(message).encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


async def with_stub(answer, scenario):
    """Run ``scenario(client)`` against a server that sends, for each
    request, the frames ``answer(request, n)`` returns (``n`` counts the
    requests the stub has seen, over all connections, from 0)."""
    seen = 0

    async def handle(reader, writer):
        nonlocal seen
        try:
            while (request := await protocol.read_frame(reader)) is not None:
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

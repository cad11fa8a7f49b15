"""A torn client reconnects once, however many callers find it torn.

Every caller that finds no connection used to open its own; the last
``_open`` to finish overwrote the others, which then belonged to nobody
and were never closed (``_disconnected`` ignores a connection that is
not the client's).  Callers share one in-flight open: one new
connection, every request answered on it, nothing open after
``close()``.
"""

import asyncio

import pytest

from repro.errors import FrontendError
from repro.serve import protocol
from repro.serve.client import FrontendClient

from . import streams
from .conftest import json_frame

TIMEOUT_S = 5.0


class CountingServer:
    """Answers every request ``pong``; counts connections made and open."""

    def __init__(self):
        self.accepted = 0
        self.open = 0
        self.all_closed = asyncio.Event()

    async def handle(self, reader, writer):
        self.accepted += 1
        self.open += 1
        self.all_closed.clear()
        try:
            while (request := await streams.read_frame(reader)) is not None:
                writer.write(json_frame(protocol.ok_response(request["id"], "pong")))
                await writer.drain()
        except (ConnectionError, FrontendError):
            pass
        finally:
            writer.close()
            self.open -= 1
            if not self.open:
                self.all_closed.set()


async def torn_client(scenario):
    """Run ``scenario(client, stub)`` with the client's connection just torn."""
    stub = CountingServer()
    server = await asyncio.start_server(stub.handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    client = await FrontendClient().connect("127.0.0.1", port)
    try:
        assert await client.ping() is True
        client._connection.transport.abort()
        while client._connection is not None:
            await asyncio.sleep(0)
        await asyncio.wait_for(scenario(client, stub), TIMEOUT_S)
        await client.close()
        # Nothing the client ever opened is still open.
        await asyncio.wait_for(stub.all_closed.wait(), TIMEOUT_S)
        assert stub.open == 0
    finally:
        await client.close()
        server.close()
        await server.wait_closed()


@pytest.mark.parametrize("callers", [2, 17])
def test_concurrent_callers_on_a_torn_client_share_one_reconnect(callers):
    async def scenario(client, stub):
        answers = await asyncio.gather(*(client.ping() for _ in range(callers)))
        assert answers == [True] * callers
        assert client.reconnects == 1
        assert stub.accepted == 2  # the first connection and one more
        assert stub.open == 1
        # The next tear reconnects again: the shared open is not sticky.
        client._connection.transport.abort()
        while client._connection is not None:
            await asyncio.sleep(0)
        assert await asyncio.gather(client.ping(), client.ping()) == [True, True]
        assert (client.reconnects, stub.accepted) == (2, 3)

    asyncio.run(torn_client(scenario))


def test_a_cancelled_caller_does_not_cancel_the_others_reconnect():
    async def scenario(client, stub):
        first = asyncio.ensure_future(client.ping())
        second = asyncio.ensure_future(client.ping())
        await asyncio.sleep(0)  # both are waiting for the one open
        first.cancel()
        assert await second is True
        assert first.cancelled()
        assert (client.reconnects, stub.accepted) == (1, 2)

    asyncio.run(torn_client(scenario))


def test_close_during_a_reconnect_leaves_nothing_open():
    async def scenario(client, stub):
        caller = asyncio.ensure_future(client.ping())
        await asyncio.sleep(0)  # the open is in flight
        await client.close()
        with pytest.raises(FrontendError, match="not connected"):
            await caller
        assert client._connection is None and client.reconnects == 0

    asyncio.run(torn_client(scenario))

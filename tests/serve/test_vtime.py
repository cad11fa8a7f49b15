"""The virtual-time event loop: its clock moves only when the loop is idle."""

import asyncio
import socket
import threading
import time

import pytest

from repro.serve import vtime
from repro.serve.vtime import VirtualTimeLoop


def test_an_idle_loop_jumps_to_its_next_timer():
    async def main():
        loop = asyncio.get_running_loop()
        assert isinstance(loop, VirtualTimeLoop) and loop.time() == 0.0
        fired = []
        loop.call_later(30.0, fired.append, "late")
        await asyncio.sleep(3600.0)
        return loop.time(), fired

    started = time.monotonic()
    now, fired = vtime.run(main())
    assert now == 3600.0 and fired == ["late"]
    assert time.monotonic() - started < 5.0


def test_a_readable_socket_is_served_before_the_clock_moves():
    async def main():
        loop = asyncio.get_running_loop()
        left, right = socket.socketpair()
        left.setblocking(False)
        right.setblocking(False)
        seen = asyncio.Event()
        loop.add_reader(left, seen.set)
        # A pending timer is what the clock would jump to if the poll
        # did not see the byte first.
        loop.call_later(10.0, lambda: None)
        right.send(b"x")
        try:
            await seen.wait()
            return loop.time()
        finally:
            loop.remove_reader(left)
            left.close()
            right.close()

    assert vtime.run(main()) == 0.0


def test_loopback_tcp_answers_in_no_virtual_time():
    async def echo(reader, writer):
        writer.write(await reader.readexactly(5))
        await writer.drain()
        writer.close()

    async def main():
        loop = asyncio.get_running_loop()
        server = await asyncio.start_server(echo, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        loop.call_later(10.0, lambda: None)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"hello")
        answer = await reader.readexactly(5)
        writer.close()
        server.close()
        await server.wait_closed()
        return answer, loop.time()

    assert vtime.run(main()) == (b"hello", 0.0)


def test_advance_moves_the_clock_without_yielding():
    async def main():
        loop = asyncio.get_running_loop()
        fired = []
        loop.call_later(1.0, fired.append, "timer")
        loop.advance(2.5)
        assert loop.time() == 2.5 and fired == []
        # The first turn resumes this task; the timer, now due, runs in
        # the same turn after it.
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert fired == ["timer"] and loop.time() == 2.5
        with pytest.raises(ValueError, match="back"):
            loop.advance(-1.0)
        return loop.time()

    assert vtime.run(main()) == 2.5


def test_run_cancels_leftover_tasks_and_closes_the_loop():
    cancelled = []

    async def forever():
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            cancelled.append(True)
            raise

    async def main():
        loop = asyncio.get_running_loop()
        task = loop.create_task(forever())
        await asyncio.sleep(0)
        return loop, task

    loop, task = vtime.run(main())
    assert cancelled == [True] and task.cancelled()
    assert loop.is_closed()
    assert threading.active_count() == 1


def test_run_propagates_the_main_coroutine_s_error():
    async def main():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        vtime.run(main())

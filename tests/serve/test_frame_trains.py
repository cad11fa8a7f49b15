"""Frames in trains: the splitter, the outbox, flow control, drain order.

The splitter has two oracles: the splitter it replaced, which buffered
every unfinished frame (``tests/reference/framing.py``), and
``read_payload`` on an :class:`asyncio.StreamReader` fed the same bytes
(``streams.py``) — the reader every connection used before that.  The
connection tests drive the server's protocol object over a transport
that records each ``write`` (so "one write for the batch" is a count,
not a timing) and over real sockets where the kernel's buffers are the
point.
"""

import asyncio
import gc
import itertools
import socket
import struct
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queries import ProbeResult
from repro.errors import FrontendError
from repro.serve import client as client_module
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.admission import AdmissionConfig, CoordinatorBackend
from repro.serve.client import FrontendClient
from repro.serve.demo import DemoClusterConfig, build_demo_cluster
from repro.serve.server import FrontendServer
from tests.reference.framing import BufferingFrameSplitter

from .conftest import (
    RecordingTransport,
    feed_reader,
    json_frame,
    raw_frame,
    request_frame,
    split_frames,
)
from .streams import read_payload

TIMEOUT_S = 10.0

SMALL = DemoClusterConfig(
    window=3, n_indexes=2, n_shards=2, domain=40,
    records_per_day=12, extra_days=1, seed=11,
)
T1, T2 = SMALL.oldest_day, SMALL.last_day

_sim = None


def sim():
    global _sim
    if _sim is None:
        _sim = build_demo_cluster(SMALL)
    return _sim


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT_S))


def probe_frame(request_id: int, value: int) -> bytes:
    return request_frame(request_id, "probe", value=value, t1=T1, t2=T2)


# ----------------------------------------------------------------------
# (i) The splitter against its two oracles
# ----------------------------------------------------------------------

LIMIT = 32


async def read_all(data: bytes) -> tuple[list[bytes], str | None]:
    """What ``read_payload`` makes of a closed stream holding ``data``."""
    reader = feed_reader(data)
    payloads: list[bytes] = []
    try:
        while True:
            payload = await read_payload(reader, max_frame_bytes=LIMIT)
            if payload is None:
                return payloads, None
            payloads.append(payload)
    except FrontendError as exc:
        return payloads, str(exc)


def split_all(chunks: list[bytes]) -> tuple[list[bytes], str | None]:
    """What the splitter makes of the same stream, cut into ``chunks``."""
    splitter = protocol.FrameSplitter(LIMIT)
    payloads: list[bytes] = []
    try:
        for chunk in chunks:
            payloads.extend(splitter.split(chunk))
    except FrontendError as exc:
        return payloads, str(exc)
    torn = splitter.torn()
    return payloads, None if torn is None else str(torn)


@given(
    # Some payloads are over LIMIT: the stream dies at the first of them.
    st.lists(st.binary(max_size=LIMIT + 8), max_size=8),
    st.lists(st.integers(min_value=0, max_value=400), max_size=12),
    st.integers(min_value=0, max_value=400),
)
@settings(max_examples=max(300, settings().max_examples), deadline=None)
def test_splitter_yields_what_read_payload_reads(payloads, cuts, keep):
    stream = b"".join(raw_frame(p) for p in payloads)
    stream = stream[: max(keep, 0) or len(stream)]  # often a torn tail
    edges = [0, *sorted(c for c in cuts if c < len(stream)), len(stream)]
    chunks = [stream[a:b] for a, b in zip(edges, edges[1:])]
    assert b"".join(chunks) == stream
    assert split_all(chunks) == asyncio.run(read_all(stream))


#: Large enough for the largest payload below, small enough to refuse a
#: prefix that announces more.
BIG_LIMIT = 320_000
PATTERN = bytes(range(256)) * 1300  # no two offsets read alike

stream_items = st.one_of(
    st.binary(max_size=12).map(raw_frame),
    st.builds(
        lambda n, k: raw_frame(PATTERN[k : k + n]),
        st.integers(min_value=300_000, max_value=310_000),
        st.integers(min_value=0, max_value=255),
    ),
    # A prefix announcing more than the limit, and whatever follows it.
    st.just(struct.pack(">I", BIG_LIMIT + 1)),
)


def cuts_of(data, stream: bytes, boundaries: list[int]) -> list[int]:
    """Cut points: anywhere, around frame boundaries, byte by byte."""
    anywhere = st.integers(min_value=0, max_value=len(stream))
    near = st.tuples(
        st.sampled_from(boundaries), st.integers(min_value=-3, max_value=5)
    ).map(sum)
    cuts = data.draw(st.lists(st.one_of(anywhere, near), max_size=10))
    start = data.draw(st.one_of(anywhere, near))
    cuts += range(start, start + data.draw(st.integers(0, 40)))  # bytewise
    return sorted({c for c in cuts if 0 < c < len(stream)})


def feed(splitter, chunk: bytes, take: int | None):
    """Hand ``chunk`` over; take ``take`` payloads (all if ``None``)."""
    payloads = splitter.split(chunk)
    try:
        got = list(itertools.islice(payloads, take))
    except FrontendError as exc:
        return None, str(exc)
    finally:
        payloads.close()  # a consumer that stops early
    return got, None


@given(st.lists(stream_items, max_size=6), st.data())
@settings(max_examples=max(100, settings().max_examples), deadline=None)
def test_splitter_agrees_with_the_buffering_splitter(items, data):
    stream = b"".join(items)
    boundaries = list(itertools.accumulate(map(len, items), initial=0))
    edges = [0, *cuts_of(data, stream, boundaries), len(stream)]
    new = protocol.FrameSplitter(BIG_LIMIT)
    old = BufferingFrameSplitter(BIG_LIMIT)
    for a, b in zip(edges, edges[1:]):
        take = data.draw(st.one_of(st.none(), st.integers(0, 2)))
        chunk = stream[a:b]
        assert feed(new, chunk, take) == feed(old, chunk, take)
        assert str(new.torn()) == str(old.torn())
    # What an early stop left behind comes out on the next call.
    assert feed(new, b"", None) == feed(old, b"", None)
    assert str(new.torn()) == str(old.torn())


def test_splitter_keeps_a_partial_tail_and_returns_nothing_twice():
    frames = [raw_frame(bytes([i]) * i) for i in range(1, 6)]
    stream = b"".join(frames)
    splitter = protocol.FrameSplitter()
    # One byte at a time: each payload appears exactly when its last
    # byte does, and never again.
    seen = []
    for i in range(len(stream)):
        seen.extend(splitter.split(stream[i : i + 1]))
        complete = sum(
            1 for n in range(1, 6) if len(b"".join(frames[:n])) <= i + 1
        )
        assert len(seen) == complete
    assert seen == [bytes([i]) * i for i in range(1, 6)]
    assert splitter.torn() is None
    # A consumer that stops early loses nothing and repeats nothing.
    first = next(splitter.split(stream + frames[1][:5]))
    assert first == b"\x01"
    assert list(splitter.split(b"")) == seen[1:]
    assert "mid-frame (1/2 bytes)" in str(splitter.torn())
    assert list(splitter.split(frames[1][5:])) == [b"\x02\x02"]
    assert splitter.torn() is None


def test_splitter_copies_a_large_payload_out_of_the_chunk_itself():
    # Every payload is ``bytes``, however it arrived: decode_frame and a
    # request's fields slice it, and a result frame's block is a view of
    # it that must not see the buffer it came from change.
    big = bytes(range(256)) * 1024  # 256 KB
    frame = raw_frame(big)
    splitter = protocol.FrameSplitter()
    (payload,) = splitter.split(frame)  # one chunk, nothing held
    assert payload == big and type(payload) is bytes
    assert splitter.torn() is None
    # In three chunks: the first two are held as views of themselves,
    # not copied, and the third completes the payload in one join.
    first, second, third = frame[:1000], frame[1000:200_000], frame[200_000:]
    assert list(splitter.split(first)) == list(splitter.split(second)) == []
    held = [piece.obj for piece in splitter._held]
    assert held[0] is first and held[1] is second
    (payload,) = splitter.split(third + frame[:2])
    assert payload == big and type(payload) is bytes
    assert "mid-prefix (2/4 bytes)" in str(splitter.torn())


# ----------------------------------------------------------------------
# (ii) Trains: one segment in, one write out
# ----------------------------------------------------------------------


async def served(connection, transport, n: int) -> list[dict]:
    """Wait until ``n`` answers were written; return them decoded."""
    while True:
        answers = split_frames(b"".join(transport.writes))
        if len(answers) >= n and not connection.requests:
            return answers
        await asyncio.sleep(0.005)


async def with_connection(scenario, config: AdmissionConfig | None = None):
    server = FrontendServer(sim().coordinator, config)
    server.controller.start()
    connection = server_module._Connection(server)
    transport = RecordingTransport()
    connection.connection_made(transport)
    try:
        return await scenario(server, connection, transport)
    finally:
        connection.connection_lost(None)
        await server.controller.drain(1.0)


def test_a_segment_of_requests_is_answered_in_fewer_writes_than_requests():
    n = 16
    values = list(range(1, n + 1))

    async def scenario(server, connection, transport):
        connection.data_received(
            b"".join(probe_frame(i, v) for i, v in enumerate(values))
        )
        answers = await served(connection, transport, n)
        assert len(transport.writes) < n
        assert server.obs.histogram("serve.batch.size").max > 1
        by_id = {a["id"]: protocol.result_from_wire(a) for a in answers}
        assert sorted(by_id) == list(range(n))
        for i, value in enumerate(values):
            direct = sim().coordinator.probe(value, T1, T2)
            assert by_id[i].entries == direct.entries
            assert by_id[i].covered_days == direct.covered_days
            assert by_id[i].missing_days == direct.missing_days

    run(with_connection(scenario))


def test_ping_stats_and_malformed_frames_are_answered_without_a_task():
    async def scenario(server, connection, transport):
        before = len(asyncio.all_tasks())
        connection.data_received(
            protocol.encode_frame({"id": 1, "op": "ping"})
            + raw_frame(b"{nope")
            + protocol.encode_frame({"id": 2, "op": ["explode"]})
            + request_frame(3, "probe", value=1, t1=T2, t2=T1)  # an empty range
            + protocol.encode_frame({"id": 4, "op": "stats"})
            + json_frame({"id": 5, "op": "probe", "value": 1, "t1": T1, "t2": T2})
            + raw_frame(probe_frame(6, 1)[4:-1])  # a value byte short
        )
        assert not connection.requests and len(asyncio.all_tasks()) == before
        assert transport.writes == []  # queued: they leave with the loop turn
        await asyncio.sleep(0)
        assert len(transport.writes) == 1  # ... in one piece
        pong, bad, unknown, empty, stats, as_json, short = split_frames(
            transport.writes[0]
        )
        assert pong == {"id": 1, "ok": True, "result": "pong"}
        assert (bad["id"], bad["error"]["code"]) == (None, "bad-request")
        assert (unknown["id"], unknown["error"]["code"]) == (2, "bad-request")
        assert "unknown op" in unknown["error"]["message"]
        assert (empty["id"], empty["error"]["code"]) == (3, "bad-request")
        assert "empty time range" in empty["error"]["message"]
        assert stats["ok"] and stats["result"]["draining"] is False
        assert (as_json["id"], as_json["error"]["code"]) == (5, "bad-request")
        assert "binary request frame" in as_json["error"]["message"]
        # Refused by decode_frame, answered under the id in its head.
        assert (short["id"], short["error"]["code"]) == (6, "bad-request")

    run(with_connection(scenario))


def test_interleaved_frames_get_the_answers_they_always_got(monkeypatch):
    scan = protocol.encode_frame(protocol.result_response(
        3, protocol.result_to_wire(sim().coordinator.scan(T1, T2))
    ))
    probe = protocol.encode_frame(protocol.result_response(
        1, protocol.result_to_wire(sim().coordinator.probe(5, T1, T2))
    ))
    assert len(probe) + 64 < len(scan)

    async def scenario(server, connection, transport):
        connection.data_received(
            probe_frame(1, 5)
            + protocol.encode_frame({"id": 2, "op": "ping"})
            + request_frame(3, "scan", t1=T1, t2=T2)
            + raw_frame(b"[1,2,3]")
            + probe  # a result frame is no request
            + probe_frame(6, 7)
        )
        answers = await served(connection, transport, 6)
        by_id = {a["id"]: a for a in answers if a["id"] is not None}
        assert sorted(by_id) == [1, 2, 3, 6]
        assert by_id[2] == {"id": 2, "ok": True, "result": "pong"}
        assert by_id[3]["error"]["code"] == "response-too-large"
        for request_id, value in ((1, 5), (6, 7)):
            assert (
                protocol.result_from_wire(by_id[request_id]).entries
                == sim().coordinator.probe(value, T1, T2).entries
            )
        nameless = [a for a in answers if a["id"] is None]
        assert [a["error"]["code"] for a in nameless] == ["bad-request"] * 2
        assert "result frame" in nameless[1]["error"]["message"]

    # Room for every probe answer and error frame, not for the scan's.
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", len(probe) + 64)
    run(with_connection(scenario))


def test_large_and_lone_frames_do_not_wait_and_order_is_kept():
    async def scenario(server, connection, transport):
        small = protocol.encode_frame({"id": 1, "ok": True, "result": "pong"})
        large = raw_frame(b"x" * (protocol.TRAIN_FRAME_BYTES + 1))
        for frame in (small, small, large, small, large, large, small):
            connection.send(frame)
        # A large frame went out at once, behind what was queued before
        # it; the last small one waits for the loop turn.
        assert transport.writes == [small + small, large, small, large, large]
        await asyncio.sleep(0)
        assert transport.writes[5:] == [small]
        # A frame that has the connection to itself does not wait either.
        connection.send(small, alone=True)
        assert transport.writes[6:] == [small]
        connection.send(small)
        connection.send(small, alone=True)
        assert transport.writes[7:] == [small + small]
        await asyncio.sleep(0)
        assert len(transport.writes) == 8  # the scheduled flush found nothing

    run(with_connection(scenario))


def test_a_lone_probe_is_answered_without_waiting_for_the_loop_turn():
    async def scenario(server, connection, transport):
        written_in_task = []
        answer = connection._answer

        async def observed(*args):
            await answer(*args)
            written_in_task.append(len(transport.writes))

        connection._answer = observed
        connection.data_received(probe_frame(1, 5))
        await served(connection, transport, 1)
        assert written_in_task == [1]  # flushed by the task, not after it
        # Two in flight: neither is alone, both leave with the loop turn.
        connection.data_received(probe_frame(2, 5) + probe_frame(3, 6))
        await served(connection, transport, 3)
        assert written_in_task[1:] == [1, 1] and len(transport.writes) == 2

    run(with_connection(scenario))


def test_an_oversized_prefix_drops_the_peer_after_the_frames_before_it():
    async def scenario(server, connection, transport):
        connection.data_received(
            protocol.encode_frame({"id": 1, "op": "ping"})
            + struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
            + protocol.encode_frame({"id": 2, "op": "ping"})
        )
        assert transport.closing
        await asyncio.sleep(0)
        assert transport.writes == []  # a closing transport takes nothing

    run(with_connection(scenario))


# ----------------------------------------------------------------------
# (iii) Flow control: a peer that does not read stops being read
# ----------------------------------------------------------------------


def test_a_peer_that_does_not_read_its_answers_stops_being_read():
    n, slice_of = 2000, 100
    frames = [probe_frame(i, 1 + i % SMALL.domain) for i in range(n)]

    async def scenario():
        loop = asyncio.get_running_loop()
        server = FrontendServer(
            sim().coordinator, AdmissionConfig(max_queue_depth=2 * n)
        )
        await server.start()
        # Small kernel buffers on both ends, so that unread answers back
        # up into the transport's buffer after a few hundred of them.
        for listener in server._server.sockets:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        requests = server.obs.counter("serve.requests")
        try:
            await loop.sock_connect(sock, ("127.0.0.1", server.port))

            async def settled(sent: int) -> bool:
                """Has the server taken in everything sent so far?"""
                for _ in range(100):
                    if requests.value == sent:
                        return True
                    await asyncio.sleep(0.005)
                return False

            # In lock step: the next slice goes out when the server has
            # read the last, until it stops reading.
            sent = 0
            while sent < n:
                await loop.sock_sendall(sock, b"".join(frames[sent : sent + slice_of]))
                sent += slice_of
                if not await settled(sent):
                    break
            stalled_at = requests.value
            assert stalled_at < sent <= n, "the server never stopped reading"
            assert len(asyncio.all_tasks()) < 50
            (connection,) = server._connections
            low, high = connection.transport.get_write_buffer_limits()
            assert connection.transport.get_write_buffer_size() > high
            rest = loop.create_task(
                loop.sock_sendall(sock, b"".join(frames[sent:]))
            )
            # Now the peer reads: everything it sent is answered.
            splitter = protocol.FrameSplitter()
            ids = set()
            while len(ids) < n:
                data = await loop.sock_recv(sock, 1 << 16)
                assert data, "server closed the connection"
                for payload in splitter.split(data):
                    answer = protocol.decode_frame(payload)
                    assert answer["ok"], answer
                    ids.add(answer["id"])
            await rest
            assert ids == set(range(n)) and requests.value == n
        finally:
            sock.close()
            await server.drain_and_close(timeout_s=5.0)

    asyncio.run(asyncio.wait_for(scenario(), 60.0))


LARGE = DemoClusterConfig(
    window=3, n_indexes=1, n_shards=1, domain=50,
    records_per_day=3000, extra_days=0, seed=3,
)


def test_a_scan_answer_larger_than_a_recv_arrives_whole(monkeypatch):
    large = build_demo_cluster(LARGE)
    t1, t2 = LARGE.oldest_day, LARGE.last_day
    direct = large.coordinator.scan(t1, t2)
    frame = protocol.encode_frame(
        protocol.result_response(1, protocol.result_to_wire(direct))
    )
    assert len(frame) > 256 * 1024  # the event loop's largest recv
    chunks = []
    received = client_module._Connection.data_received

    def counted(self, data):
        chunks.append(len(data))
        received(self, data)

    monkeypatch.setattr(client_module._Connection, "data_received", counted)

    async def scenario():
        server = FrontendServer(large.coordinator)
        await server.start()
        client = await FrontendClient().connect("127.0.0.1", server.port)
        try:
            return await client.scan(t1, t2)
        finally:
            await client.close()
            await server.drain_and_close(timeout_s=5.0)

    got = run(scenario())
    assert len(chunks) > 1 and sum(chunks) == len(frame)
    assert got == direct and type(got) is type(direct)
    # Column for column, then entry for entry.
    assert list(got.entries.record_ids) == [e.record_id for e in direct.entries]
    assert list(got.entries.days) == [e.day for e in direct.entries]
    assert [e.info for e in got.entries] == [e.info for e in direct.entries]
    assert list(got.entries) == list(direct.entries)


# ----------------------------------------------------------------------
# (iv) Drain: settled in the turn drain() finishes, still delivered
# ----------------------------------------------------------------------


class GatedBackend(CoordinatorBackend):
    """Holds every call on the loop until released."""

    def __init__(self, coordinator) -> None:
        super().__init__(coordinator)
        self.entered = asyncio.Event()
        self.release = asyncio.Event()

    async def probe_many(self, specs):
        self.entered.set()
        await self.release.wait()
        return await super().probe_many(specs)


def test_a_batch_settled_as_drain_finishes_still_reaches_the_client():
    async def scenario():
        loop = asyncio.get_running_loop()
        backend = GatedBackend(sim().coordinator)
        server = FrontendServer(sim().coordinator, backend=backend)
        await server.start()
        client = await FrontendClient().connect("127.0.0.1", server.port)
        try:
            probes = [
                loop.create_task(client.probe(v, T1, T2)) for v in range(1, 9)
            ]
            await asyncio.wait_for(backend.entered.wait(), TIMEOUT_S)
            closing = loop.create_task(server.drain_and_close(timeout_s=5.0))
            await asyncio.sleep(0.05)  # draining, the batch still held
            assert not closing.done()
            backend.release.set()
            assert await closing is True
            # Every answer was flushed before the connection closed.
            results = await asyncio.gather(*probes)
            assert [r.entries for r in results] == [
                sim().coordinator.probe(v, T1, T2).entries for v in range(1, 9)
            ]
        finally:
            backend.release.set()
            await client.close()

    run(scenario())


# ----------------------------------------------------------------------
# Shutdown lets go of the backend before it returns
# ----------------------------------------------------------------------


class StubBackend:
    async def probe_many(self, specs):
        return [ProbeResult((), 0.0, 0, frozenset(), frozenset()) for _ in specs]

    async def scan_many(self, specs):
        raise AssertionError("no scans here")


@pytest.mark.parametrize("how", ["drain", "drain-after-client", "abort"])
def test_a_closed_server_holds_its_backend_no_loop_turn_longer(how):
    async def scenario():
        backend = StubBackend()
        alive = weakref.ref(backend)
        server = FrontendServer(None, backend=backend)
        await server.start()
        client = await FrontendClient().connect("127.0.0.1", server.port)
        await asyncio.gather(*(client.probe(v, 1, 2) for v in range(5)))
        if how == "drain-after-client":
            await client.close()
        if how == "abort":
            await server.abort()
        else:
            assert await server.drain_and_close(timeout_s=5.0) is True
        # No await from here to the check: a caller that builds its next
        # cluster right away must not be holding two.
        del server, backend
        gc.collect()
        held = alive() is not None
        await client.close()
        return held

    assert run(scenario()) is False

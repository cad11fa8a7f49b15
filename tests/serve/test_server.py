"""End-to-end TCP tests: server + client over a real demo cluster.

One small cluster is built per module (session-scoped fixture would
leak across asyncio.run loops; the build is fast enough to share via a
plain module-level cache) and verified against direct coordinator
answers, so the wire path is checked for fidelity, not just liveness.
"""

import asyncio
import struct
import threading

import pytest

from repro.errors import FrontendError, RequestRejected
from repro.index import codec
from repro.serve import is_retryable, protocol
from repro.serve.admission import (
    TENANT_BURST,
    AdmissionConfig,
    CoordinatorBackend,
)
from repro.serve.client import FrontendClient, InProcessClient
from repro.serve.demo import DemoClusterConfig, build_demo_cluster
from repro.serve.server import FrontendServer

from . import streams
from .conftest import json_frame, request_frame

SMALL = DemoClusterConfig(
    window=3, n_indexes=2, n_shards=2, domain=40,
    records_per_day=12, extra_days=1, seed=11,
)

_sim = None


def sim():
    global _sim
    if _sim is None:
        _sim = build_demo_cluster(SMALL)
    return _sim


def run(coro):
    return asyncio.run(coro)


async def with_server(fn, config: AdmissionConfig | None = None):
    server = FrontendServer(sim().coordinator, config)
    await server.start()
    client = await FrontendClient().connect("127.0.0.1", server.port)
    try:
        return await fn(server, client)
    finally:
        await client.close()
        await server.drain_and_close(timeout_s=5.0)


class TestEndToEnd:
    def test_ping(self):
        async def scenario(server, client):
            assert await client.ping() is True

        run(with_server(scenario))

    def test_probe_matches_direct_coordinator(self):
        async def scenario(server, client):
            t1, t2 = SMALL.oldest_day, SMALL.last_day
            for value in range(1, 10):
                over_wire = await client.probe(value, t1, t2)
                direct = sim().coordinator.probe(value, t1, t2)
                assert over_wire.entries == direct.entries
                assert over_wire.covered_days == direct.covered_days
                assert over_wire.missing_days == direct.missing_days

        run(with_server(scenario))

    def test_scan_matches_direct_coordinator(self):
        async def scenario(server, client):
            t1, t2 = SMALL.oldest_day, SMALL.last_day
            over_wire = await client.scan(t1, t2)
            direct = sim().coordinator.scan(t1, t2)
            assert over_wire.entries == direct.entries
            assert over_wire.covered_days == direct.covered_days

        run(with_server(scenario))

    def test_second_identical_one_day_scan_encodes_nothing(self, monkeypatch):
        """The bytes a day's run caches are the bytes an encode would send."""
        calls = []
        real = codec.encode_records

        def counted(entries):
            calls.append(len(entries))
            return real(entries)

        async def scenario(server, client):
            day = SMALL.last_day
            first = await client.scan(day, day)
            assert calls  # the runs' records, once
            del calls[:]
            second = await client.scan(day, day)
            assert calls == []
            direct = sim().coordinator.scan(day, day)
            assert len(direct.entries) > 8 and direct.parts
            assert first.entries == second.entries == direct.entries
            assert protocol.result_to_wire(direct)["entries"] == (
                codec.encode_entries_object(direct.entries)
            )
            assert calls == []

        monkeypatch.setattr(codec, "encode_records", counted)
        run(with_server(scenario))

    def test_pipelined_requests_multiplex_one_connection(self):
        async def scenario(server, client):
            t1, t2 = SMALL.oldest_day, SMALL.last_day
            results = await asyncio.gather(
                *(client.probe(v, t1, t2) for v in range(1, 21))
            )
            directs = [
                sim().coordinator.probe(v, t1, t2) for v in range(1, 21)
            ]
            assert [r.entries for r in results] == [
                d.entries for d in directs
            ]

        run(with_server(scenario))

    def test_stats_exposes_admission_state(self):
        async def scenario(server, client):
            await client.probe(1, SMALL.oldest_day, SMALL.last_day)
            stats = await client.stats()
            assert stats["draining"] is False
            assert stats["queue_depth"] == 0
            assert stats["counters"]["serve.admitted"] >= 1
            assert stats["counters"]["serve.completed"] >= 1

        run(with_server(scenario))

    def test_bad_request_gets_error_not_disconnect(self):
        async def scenario(server, client):
            with pytest.raises(FrontendError, match="bad-request"):
                await client.probe(1, "not-a-day", 2)
            # The connection survives a bad request.
            assert await client.ping() is True

        run(with_server(scenario))

    def test_unknown_op_rejected(self):
        async def scenario(server, client):
            with pytest.raises(FrontendError, match="unknown op"):
                await client._request({"op": "explode"})

        run(with_server(scenario))

    def test_tenant_rate_limit_over_the_wire(self):
        async def scenario(server, client):
            t1, t2 = SMALL.oldest_day, SMALL.last_day
            codes = []
            for _ in range(int(TENANT_BURST) + 5):
                try:
                    await client.probe(1, t1, t2, tenant="busy")
                except RequestRejected as exc:
                    codes.append(exc.code)
            assert codes, "a full bucket must reject some of burst + 5 requests"
            assert set(codes) == {"rate-limit"}

        run(with_server(
            scenario,
            AdmissionConfig(tenant_rate=0.001),
        ))

    def test_draining_server_rejects_new_work(self):
        async def scenario():
            server = FrontendServer(sim().coordinator)
            await server.start()
            client = await FrontendClient().connect(
                "127.0.0.1", server.port
            )
            try:
                assert await server.drain_and_close(timeout_s=5.0) is True
            finally:
                await client.close()

        run(scenario())

    def test_deadline_propagates_over_the_wire(self):
        async def scenario(server, client):
            # A deadline that already passed must be rejected, not
            # answered late.
            with pytest.raises(RequestRejected) as exc:
                await client.probe(
                    1, SMALL.oldest_day, SMALL.last_day,
                    deadline_ms=-1.0,
                )
            assert exc.value.code == "deadline-expired"

        run(with_server(scenario))


class CountingBackend(CoordinatorBackend):
    """The demo coordinator, keeping every spec it was asked for."""

    def __init__(self) -> None:
        super().__init__(sim().coordinator)
        self.specs: list[tuple] = []

    async def probe_many(self, specs):
        self.specs.extend(specs)
        return await super().probe_many(specs)

    async def scan_many(self, specs):
        self.specs.extend(specs)
        return await super().scan_many(specs)


class ThreadRecordingBackend(CoordinatorBackend):
    """The demo coordinator, keeping the thread of every call."""

    def __init__(self) -> None:
        super().__init__(sim().coordinator)
        self.threads: set[int] = set()

    async def probe_many(self, specs):
        self.threads.add(threading.get_ident())
        return await super().probe_many(specs)

    async def scan_many(self, specs):
        self.threads.add(threading.get_ident())
        return await super().scan_many(specs)


class WaitingBackend(ThreadRecordingBackend):
    """Waits a millisecond on the loop before it computes."""

    async def probe_many(self, specs):
        await asyncio.sleep(0.001)
        return await super().probe_many(specs)

    async def scan_many(self, specs):
        await asyncio.sleep(0.001)
        return await super().scan_many(specs)


class TestWhereTheBackendRuns:
    """Every backend is called on the loop's thread."""

    @pytest.mark.parametrize(
        "backend_cls", [ThreadRecordingBackend, WaitingBackend],
        ids=["computes", "waits"],
    )
    def test_probe_and_scan_run_on_the_loop_whether_the_backend_computes_or_waits(
        self, backend_cls
    ):
        t1, t2 = SMALL.oldest_day, SMALL.last_day

        async def scenario():
            backend = backend_cls()
            server = FrontendServer(None, backend=backend)
            await server.start()
            client = await FrontendClient().connect("127.0.0.1", server.port)
            try:
                probe = await client.probe(1, t1, t2)
                scan = await client.scan(t1, t2)
            finally:
                await client.close()
                await server.drain_and_close(timeout_s=5.0)
            assert probe.entries == sim().coordinator.probe(1, t1, t2).entries
            assert scan.entries == sim().coordinator.scan(t1, t2).entries
            return backend.threads, threading.get_ident()

        threads, loop_thread = run(scenario())
        assert threads == {loop_thread}

    def test_four_hundred_tcp_probes_start_no_thread(self):
        t1, t2 = SMALL.oldest_day, SMALL.last_day

        async def scenario(server, client):
            before = threading.active_count()
            for value in range(200):
                await client.probe(value, t1, t2)
            await asyncio.gather(
                *(client.probe(value, t1, t2) for value in range(200))
            )
            assert threading.active_count() <= before

        run(with_server(scenario, AdmissionConfig(max_queue_depth=512)))


class TestOneRequestsFaultIsItsOwn:
    """A request wrong in itself is refused before admission, alone."""

    @pytest.mark.parametrize("path", ["tcp", "in-process"])
    def test_an_empty_range_does_not_fail_the_batch_it_would_have_joined(
        self, path
    ):
        t1, t2 = SMALL.oldest_day, SMALL.last_day

        async def scenario():
            backend = CountingBackend()
            server = FrontendServer(None, backend=backend)
            await server.start()
            if path == "tcp":
                client = await FrontendClient().connect("127.0.0.1", server.port)
            else:
                client = InProcessClient(server.controller)
            try:
                # One gather on one connection: coalesced into one batch.
                *good, bad, bad_scan = await asyncio.gather(
                    *(client.probe(v, t1, t2, tenant="good") for v in range(1, 9)),
                    client.probe(3, t2, t1, tenant="bad"),
                    client.scan(t2, t1, tenant="bad"),
                    return_exceptions=True,
                )
                stats = server.stats()["counters"]
            finally:
                await client.close()
                await server.drain_and_close(timeout_s=5.0)
            assert [r.entries for r in good] == [
                sim().coordinator.probe(v, t1, t2).entries for v in range(1, 9)
            ]
            for refused in (bad, bad_scan):
                assert isinstance(refused, FrontendError)
                assert not is_retryable(refused)
                assert "empty time range" in str(refused)
            assert ("bad-request" in str(bad)) == (path == "tcp")
            # Asked for eight specs, gave eight answers; admission never
            # saw the ninth and tenth.
            assert sorted(backend.specs) == [(v, t1, t2) for v in range(1, 9)]
            assert stats["serve.requests"] == stats["serve.completed"] == 8
            assert "serve.tenant.bad.requests" not in stats
            assert "serve.backend.errors" not in stats

        run(scenario())

    @pytest.mark.parametrize("path", ["tcp", "in-process"])
    @pytest.mark.parametrize(
        "deadline_ms", ["soon", [1], float("nan")], ids=["str", "list", "nan"]
    )
    def test_a_deadline_that_is_no_number_is_the_callers_mistake(
        self, path, deadline_ms
    ):
        t1, t2 = SMALL.oldest_day, SMALL.last_day

        async def scenario(server, client):
            if path == "in-process":
                client = InProcessClient(server.controller)
            for call in (
                lambda: client.probe(1, t1, t2, deadline_ms=deadline_ms),
                lambda: client.scan(t1, t2, deadline_ms=deadline_ms),
            ):
                with pytest.raises(FrontendError, match="not a number") as exc:
                    await asyncio.wait_for(call(), timeout=5.0)
                assert "internal" not in str(exc.value)
                assert ("bad-request" in str(exc.value)) == (path == "tcp")
            assert server.stats()["counters"]["serve.requests"] == 0
            # A negative deadline has expired, an infinite one never will.
            with pytest.raises(RequestRejected, match="deadline"):
                await client.probe(1, t1, t2, deadline_ms=-1)
            await client.probe(1, t1, t2, deadline_ms=float("inf"))

        run(with_server(scenario))


class TestOneWireForm:
    """A probe or scan is a request frame; JSON is for the rest."""

    def test_probes_and_scans_never_reach_the_json_codec(self, monkeypatch):
        calls = {"encode": 0, "decode": 0}
        encode, decode = protocol._encode_json, protocol._decode_json

        def counting(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(protocol, "_encode_json", counting("encode", encode))
        monkeypatch.setattr(protocol, "_decode_json", counting("decode", decode))

        async def scenario(server, client):
            t1, t2 = SMALL.oldest_day, SMALL.last_day
            await asyncio.gather(
                *(client.probe(v, t1, t2) for v in range(1, 26)),
                *(client.probe(str(v), t1, t2, deadline_ms=5e3) for v in range(25)),
            )
            for _ in range(5):
                await client.scan(t1, t2, tenant="scanner")
            assert calls == {"encode": 0, "decode": 0}
            # Both sides, both directions: request and response.
            assert await client.ping() is True
            assert calls == {"encode": 2, "decode": 2}
            await client.stats()
            assert calls == {"encode": 4, "decode": 4}
            with pytest.raises(FrontendError, match="empty time range"):
                await client.probe(1, t2, t1)  # the rejection is text
            assert calls == {"encode": 5, "decode": 5}
            # A value of no fixed layout travels as JSON text, and only it.
            await client.probe(1.5, t1, t2)
            assert calls == {"encode": 6, "decode": 6}

        run(with_server(scenario))

    def test_a_json_framed_probe_or_scan_is_refused_and_the_peer_kept(self):
        async def scenario(server, client):
            t1, t2 = SMALL.oldest_day, SMALL.last_day
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(
                    json_frame({"id": 1, "op": "probe", "value": 1, "t1": t1, "t2": t2})
                    + json_frame({"id": 2, "op": "scan", "t1": t1, "t2": t2})
                    + request_frame(3, "probe", value=1, t1=t1, t2=t2)
                )
                await writer.drain()
                replies = [
                    await asyncio.wait_for(streams.read_frame(reader), 5.0)
                    for _ in range(3)
                ]
            finally:
                writer.close()
                await writer.wait_closed()
            by_id = {r["id"]: r for r in replies}
            for request_id, op in ((1, "probe"), (2, "scan")):
                error = by_id[request_id]["error"]
                assert error["code"] == "bad-request"
                assert f"a {op} is sent as a binary request frame" in error["message"]
            assert (
                protocol.result_from_wire(by_id[3]).entries
                == sim().coordinator.probe(1, t1, t2).entries
            )
            assert server.stats()["counters"]["serve.requests"] == 1

        run(with_server(scenario))


class TestFrameErrors:
    """What the server does with frames it cannot answer as asked."""

    def test_oversize_response_is_answered_not_dropped(self, monkeypatch):
        async def scenario(server, client):
            t1, t2 = SMALL.oldest_day, SMALL.last_day
            assert len(sim().coordinator.scan(t1, t2).entries) > 8
            with pytest.raises(FrontendError, match="response-too-large") as exc:
                # Without the error frame this would never settle.
                await asyncio.wait_for(client.scan(t1, t2), timeout=5.0)
            assert not is_retryable(exc.value)  # as large on any frontend
            # The connection and the server both survive it.
            assert await client.ping() is True

        # Room for any request or error frame, not for a whole-window scan.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 256)
        run(with_server(scenario))

    def test_undecodable_payload_poisons_only_its_own_frame(self):
        async def scenario(server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                bad_json = b"{nope"
                not_an_object = b"[1,2,3]"
                binary = protocol.encode_frame(protocol.result_response(
                    9, protocol.result_to_wire(
                        sim().coordinator.probe(1, SMALL.oldest_day, SMALL.last_day)
                    ),
                ))
                for payload in (bad_json, not_an_object):
                    writer.write(struct.pack(">I", len(payload)) + payload)
                writer.write(binary)
                streams.write_frame(writer, {"id": 4, "op": "ping"})
                await writer.drain()
                replies = [
                    await asyncio.wait_for(streams.read_frame(reader), 5.0)
                    for _ in range(4)
                ]
            finally:
                writer.close()
                await writer.wait_closed()
            rejected = [r for r in replies if not r["ok"]]
            assert [r["id"] for r in rejected] == [None, None, None]
            assert {r["error"]["code"] for r in rejected} == {"bad-request"}
            assert "result frame" in rejected[-1]["error"]["message"]
            assert [r for r in replies if r["ok"]] == [
                {"id": 4, "ok": True, "result": "pong"}
            ]

        run(with_server(scenario))

    def test_torn_or_oversized_frame_still_drops_the_peer(self):
        async def scenario(server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
                await writer.drain()
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
            finally:
                writer.close()
                await writer.wait_closed()

        run(with_server(scenario))

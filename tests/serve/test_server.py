"""End-to-end TCP tests: server + client over a real demo cluster.

One small cluster is built per module (session-scoped fixture would
leak across asyncio.run loops; the build is fast enough to share via a
plain module-level cache) and verified against direct coordinator
answers, so the wire path is checked for fidelity, not just liveness.
"""

import asyncio
import struct

import pytest

from repro.errors import FrontendError, RequestRejected
from repro.serve import is_retryable, protocol
from repro.serve.admission import AdmissionConfig
from repro.serve.client import FrontendClient
from repro.serve.demo import DemoClusterConfig, build_demo_cluster
from repro.serve.server import FrontendServer

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
            for _ in range(8):
                try:
                    await client.probe(1, t1, t2, tenant="busy")
                except RequestRejected as exc:
                    codes.append(exc.code)
            assert codes, "bucket of 3 must reject some of 8 requests"
            assert set(codes) == {"rate-limit"}

        run(with_server(
            scenario,
            AdmissionConfig(tenant_rate=0.001, tenant_burst=3.0),
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
                protocol.write_frame(writer, {"id": 4, "op": "ping"})
                await writer.drain()
                replies = [
                    await asyncio.wait_for(protocol.read_frame(reader), 5.0)
                    for _ in range(4)
                ]
            finally:
                writer.close()
                await writer.wait_closed()
            rejected = [r for r in replies if not r["ok"]]
            assert [r["id"] for r in rejected] == [None, None, None]
            assert {r["error"]["code"] for r in rejected} == {"bad-request"}
            assert "JSON frame" in rejected[-1]["error"]["message"]
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

"""The asyncio query frontend over a :class:`ClusterCoordinator`.

``FrontendServer`` owns one :class:`~repro.serve.admission.AdmissionController`
and speaks the length-prefixed protocol of
:mod:`repro.serve.protocol` on a TCP listener.  Each connection is a
:class:`~repro.serve.protocol.FramedConnection`: every frame a segment
holds is cut out and handled in arrival order, nothing awaited per
frame.  ``ping``, ``stats`` and every request that cannot be served as
asked are answered on the spot; an admitted probe or scan gets one task
that awaits the admission pipeline and marshals the answer.  Answers are
queued on the connection and leave once per loop turn, so the answers of
one dispatched batch are one ``send()`` (the answer of a connection's
only request in flight, and any frame too large to join a train, is
written at once); a client may pipeline any
number of requests and receives the responses as each completes
(correlation is by the request ``id`` the client chose, not by order).
A probe or scan is a binary request frame, ``ping`` and ``stats`` are
JSON frames; a frame that is neither — a payload that does not decode, a
probe sent as JSON, a result frame — and a request that is wrong in
itself (an empty range, a deadline that is no number) is answered
``bad-request`` before admission and the connection stays, under the
request's ``id`` whenever that could be read (the head of a request
frame holds it whatever is wrong after it) and ``id: null`` otherwise;
only a torn or oversized frame, after which the stream position is
unknown, drops the peer.  ``ping`` and ``stats`` bypass admission —
health checks and metric scrapes must keep working while the query path
is saturated or draining.

Flow control: a peer that pipelines without taking its answers stops
being read.  When the transport's write buffer passes its high-water
mark the connection pauses reading, and resumes when the buffer drains,
so what one peer can have in flight is what it sent before its answers
backed up.

Shutdown is graceful by default: :meth:`FrontendServer.drain_and_close`
stops the listener, lets queued and in-flight requests finish (bounded
by the configured drain timeout), waits for their answers to be
marshalled, flushes every connection and only then closes it.
"""

from __future__ import annotations

import asyncio
from typing import Any

from ..errors import BackendError, FrontendError, RequestRejected
from ..obs import MetricsRegistry
from . import protocol
from .admission import AdmissionConfig, AdmissionController, CoordinatorBackend


class FrontendServer:
    """Serve probe/scan over TCP through the admission pipeline.

    Args:
        coordinator: The cluster's scatter-gather front door (any object
            with ``probe_many`` / ``scan_many`` batch APIs).
        config: Admission-pipeline tuning.
        metrics: Registry shared with the admission controller; scraped
            by the ``stats`` op.
        backend: Pre-built backend to dispatch into instead of wrapping
            ``coordinator`` (coroutine ``probe_many`` / ``scan_many``).
            A multi-frontend fleet passes one shared
            :class:`CoordinatorBackend`, or a wrapper around it that
            awaits before calling it: every frontend runs on the one
            event loop they share, so the single-threaded simulated
            substrate never sees two calls at once.
    """

    def __init__(
        self,
        coordinator: Any,
        config: AdmissionConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        backend: Any | None = None,
    ) -> None:
        self.config = config or AdmissionConfig()
        self.obs = metrics or MetricsRegistry()
        self.controller = AdmissionController(
            backend if backend is not None else CoordinatorBackend(coordinator),
            self.config,
            metrics=self.obs,
        )
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind the listener and spawn the dispatchers.

        ``port=0`` binds an ephemeral port; read it back from
        :attr:`port` (the CI smoke job and the tests do exactly that).
        """
        if self._server is not None:
            raise FrontendError("server already started")
        self.controller.start()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host, port
        )

    @property
    def port(self) -> int:
        """Return the bound TCP port."""
        if self._server is None or not self._server.sockets:
            raise FrontendError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def drain_and_close(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown: stop listening, drain, flush, close.

        Returns ``True`` when every admitted request completed before
        the drain timeout.
        """
        if timeout_s is None:
            timeout_s = self.config.drain_timeout_s
        if self._server is not None:
            self._server.close()
        clean = await self.controller.drain(timeout_s)
        # drain() returns with the last batch settled: those answers are
        # one loop turn from their outbox, and a transport drops what is
        # written after close().  So the request tasks finish first.
        requests = [r for c in self._connections for r in c.requests]
        if requests:
            await asyncio.wait(requests, timeout=timeout_s)
        for connection in list(self._connections):
            connection.close()
        await self._connections_closed(timeout_s)
        return clean

    async def abort(self) -> None:
        """Ungraceful shutdown: kill the listener and every connection.

        The chaos harness uses this to model a frontend crash: clients
        with requests in flight see torn streams, not ``draining``
        rejections, and nothing queued or buffered gets a goodbye.  The
        drain path is *not* taken on purpose.
        """
        if self._server is not None:
            self._server.close()
        for connection in list(self._connections):
            connection.transport.abort()
        await self._connections_closed(None)
        await self.controller.drain(0.0)

    async def _connections_closed(self, patience_s: float | None) -> None:
        """Return once every connection has let go of its socket.

        One still pushing buffered answers at a peer that stopped
        reading is aborted after ``patience_s``.
        """
        closed = [connection.closed for connection in self._connections]
        if closed:
            _, stuck = await asyncio.wait(closed, timeout=patience_s)
            if stuck:
                for connection in list(self._connections):
                    connection.transport.abort()
                await asyncio.wait(stuck)
        if self._server is not None:
            # After the connections: since 3.12 this waits for them.
            await self._server.wait_closed()
            self._server = None

    def stats(self) -> dict[str, Any]:
        """Return the metrics snapshot the ``stats`` op serves."""
        snapshot = self.obs.snapshot()
        snapshot["queue_depth"] = self.controller.queue_depth
        snapshot["in_flight"] = self.controller.in_flight
        snapshot["draining"] = self.controller.draining
        snapshot["concurrency_limit"] = self.controller.concurrency_limit
        adaptive = self.controller.adaptive_snapshot
        if adaptive is not None:
            snapshot["adaptive"] = adaptive
        return snapshot


def _error_response(request_id: Any, exc: Exception) -> dict[str, Any]:
    """Return the error frame body that reports ``exc`` to the client."""
    if isinstance(exc, RequestRejected):
        return protocol.error_response(request_id, exc.code, str(exc))
    if isinstance(exc, BackendError):
        # Admitted but failed in the cluster: clients may retry it on
        # another frontend, unlike a bad request.
        return protocol.error_response(request_id, "backend-error", str(exc))
    if isinstance(exc, FrontendError):
        return protocol.error_response(request_id, "bad-request", str(exc))
    # Never let one request kill the stream.
    return protocol.error_response(request_id, "internal", repr(exc))


class _Connection(protocol.FramedConnection):
    """The server's end of one client connection."""

    def __init__(self, server: FrontendServer) -> None:
        super().__init__()
        self.server = server
        #: One task per admitted probe or scan not yet answered.
        self.requests: set[asyncio.Task] = set()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self.server._connections.add(self)
        self.server.obs.counter("serve.connections").inc()

    def connection_lost(self, exc: Exception | None) -> None:
        # Nobody is left to answer; admission skips a cancelled waiter.
        for request in self.requests:
            request.cancel()
        self.server._connections.discard(self)
        super().connection_lost(exc)

    def stream_torn(self, exc: FrontendError) -> None:
        # Torn stream or oversized frame: the stream position is lost,
        # so the peer is dropped.
        self.transport.close()

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def payload_received(self, payload: bytes) -> None:
        request_id = None
        try:
            message = protocol.decode_frame(payload)
            if payload[:1] == protocol.REQUEST_MARKER:
                # decode_frame vouches for the op, the types of the
                # fields and the deadline; the range is this request's.
                request_id, op = message["id"], message["op"]
                t1, t2 = message["t1"], message["t2"]
                protocol.check_range(t1, t2)
                deadline_ms = message["deadline_ms"]
                request = self._loop.create_task(
                    self._answer(
                        request_id,
                        op,
                        (message["value"], t1, t2) if op == "probe" else (t1, t2),
                        message["tenant"],
                        None if deadline_ms is None else deadline_ms / 1e3,
                    )
                )
                self.requests.add(request)
                request.add_done_callback(self.requests.discard)
                return
            if "entries" in message:
                raise FrontendError("a result frame is no request")
            request_id = message.get("id")
            op = message.get("op")
            if op == "ping":
                response = protocol.ok_response(request_id, "pong")
            elif op == "stats":
                response = protocol.ok_response(request_id, self.server.stats())
            elif op in ("probe", "scan"):
                raise FrontendError(
                    f"a {op} is sent as a binary request frame, not as JSON"
                )
            else:
                raise FrontendError(
                    f"unknown op {op!r}; known: {', '.join(protocol.OPS)}"
                )
        except Exception as exc:
            if request_id is None:
                # Refused by decode_frame: the id is still in the head.
                request_id = protocol.request_id_of(payload)
            response = _error_response(request_id, exc)
        self._respond(request_id, response)

    async def _answer(
        self,
        request_id: Any,
        op: str,
        spec: tuple[Any, ...],
        tenant: str,
        deadline_s: float | None,
    ) -> None:
        try:
            result = await self.server.controller.submit(
                op, spec, tenant=tenant, deadline_s=deadline_s
            )
            response = protocol.result_response(
                request_id, protocol.result_to_wire(result)
            )
        except Exception as exc:
            response = _error_response(request_id, exc)
        # This task is still in ``requests``: alone means the only one.
        self._respond(request_id, response, alone=len(self.requests) == 1)

    def _respond(
        self, request_id: Any, response: dict[str, Any], *, alone: bool = False
    ) -> None:
        try:
            frame = protocol.encode_frame(response)
        except FrontendError as exc:
            # Over the frame limit, or more days than the header counts:
            # the caller still gets an answer.
            frame = protocol.encode_frame(
                protocol.error_response(
                    request_id, "response-too-large", str(exc)
                )
            )
        self.send(frame, alone=alone)


__all__ = ["FrontendServer"]

"""The asyncio query frontend over a :class:`ClusterCoordinator`.

``FrontendServer`` owns one :class:`~repro.serve.admission.AdmissionController`
and speaks the length-prefixed protocol of
:mod:`repro.serve.protocol` on a TCP listener.  Each connection is read
frame by frame; every request is decoded and handled in its own task,
so a client may pipeline any number of requests on one connection and
receive the responses as each completes (correlation is by the request
``id`` the client chose, not by order).  A frame whose payload does not
decode is answered ``bad-request`` with ``id: null`` and the connection
stays; only a torn or oversized frame, after which the stream position
is unknown, drops the peer.  ``ping`` and ``stats`` bypass admission —
health checks and metric scrapes must keep working while the query path
is saturated or draining.

Shutdown is graceful by default: :meth:`FrontendServer.drain_and_close`
stops the listener, lets queued and in-flight requests finish (bounded
by the configured drain timeout), then closes the connections.
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
            ``coordinator``.  A multi-frontend fleet passes one shared
            :class:`CoordinatorBackend` so every frontend serializes
            through the same lock — the single-threaded simulated
            substrate must never see two frontends' executor threads at
            once.
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
        self._connections: set[asyncio.Task] = set()

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
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )

    @property
    def port(self) -> int:
        """Return the bound TCP port."""
        if self._server is None or not self._server.sockets:
            raise FrontendError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def drain_and_close(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown: stop listening, drain, close connections.

        Returns ``True`` when every admitted request completed before
        the drain timeout.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        clean = await self.controller.drain(timeout_s)
        for task in list(self._connections):
            task.cancel()
        for task in list(self._connections):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._connections.clear()
        self._server = None
        return clean

    async def abort(self) -> None:
        """Ungraceful shutdown: kill the listener and every connection.

        The chaos harness uses this to model a frontend crash: clients
        with requests in flight see torn streams, not ``draining``
        rejections, and nothing queued gets a goodbye.  The drain path
        is *not* taken on purpose.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        for task in list(self._connections):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._connections.clear()
        await self.controller.drain(0.0)

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

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        self.obs.counter("serve.connections").inc()
        write_lock = asyncio.Lock()
        requests: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    payload = await protocol.read_payload(reader)
                except FrontendError:
                    break  # torn stream or oversized frame: drop the peer
                if payload is None:
                    break
                request = asyncio.get_running_loop().create_task(
                    self._handle_request(payload, writer, write_lock)
                )
                requests.add(request)
                request.add_done_callback(requests.discard)
        except asyncio.CancelledError:
            # Server shutdown (drain/abort) cancelled this connection;
            # finish through the cleanup below instead of letting the
            # streams layer log the cancellation as an error.
            pass
        finally:
            for request in list(requests):
                request.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._connections.discard(task)

    async def _handle_request(
        self,
        payload: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id = None
        try:
            message = protocol.decode_frame(payload)
            if "entries" in message:
                raise FrontendError("a request must be a JSON frame")
            request_id = message.get("id")
            response = await self._dispatch(message)
        except RequestRejected as exc:
            response = protocol.error_response(request_id, exc.code, str(exc))
        except BackendError as exc:
            # Admitted but failed in the cluster: clients may retry it
            # on another frontend, unlike a bad request.
            response = protocol.error_response(
                request_id, "backend-error", str(exc)
            )
        except FrontendError as exc:
            response = protocol.error_response(
                request_id, "bad-request", str(exc)
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # never let one request kill the stream
            response = protocol.error_response(
                request_id, "internal", repr(exc)
            )
        async with write_lock:
            try:
                try:
                    protocol.write_frame(writer, response)
                except FrontendError as exc:
                    # Over the frame limit; nothing was written.
                    protocol.write_frame(
                        writer,
                        protocol.error_response(
                            request_id, "response-too-large", str(exc)
                        ),
                    )
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # peer went away; nothing to tell it

    async def _dispatch(self, message: dict[str, Any]) -> dict[str, Any]:
        request_id = message.get("id")
        op = message.get("op")
        if op == "ping":
            return protocol.ok_response(request_id, "pong")
        if op == "stats":
            return protocol.ok_response(request_id, self.stats())
        tenant = str(message.get("tenant", "default"))
        deadline_ms = message.get("deadline_ms")
        deadline_s = None if deadline_ms is None else float(deadline_ms) / 1e3
        if op == "probe":
            spec = self._probe_spec(message)
        elif op == "scan":
            spec = self._scan_spec(message)
        else:
            raise FrontendError(
                f"unknown op {op!r}; known: {', '.join(protocol.OPS)}"
            )
        result = await self.controller.submit(
            op, spec, tenant=tenant, deadline_s=deadline_s
        )
        return protocol.result_response(
            request_id, protocol.result_to_wire(result)
        )

    @staticmethod
    def _probe_spec(message: dict[str, Any]) -> tuple[Any, int, int]:
        try:
            return (message["value"], int(message["t1"]), int(message["t2"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FrontendError(f"malformed probe request: {exc}") from exc

    @staticmethod
    def _scan_spec(message: dict[str, Any]) -> tuple[int, int]:
        try:
            return (int(message["t1"]), int(message["t2"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FrontendError(f"malformed scan request: {exc}") from exc


__all__ = ["FrontendServer"]

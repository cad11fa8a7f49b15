"""Clients for the serving frontend: TCP and in-process.

:class:`FrontendClient` speaks the wire protocol over one TCP
connection with request multiplexing — any number of requests may be in
flight at once; the connection is a
:class:`~repro.serve.protocol.FramedConnection` that cuts every response
out of each segment the socket delivers and settles its caller's future
by correlation id, and whose requests leave once per loop turn, so the
callers one segment of answers woke send their next requests in one
``send()`` (a request with nothing else pending on the connection is
written at once).  That multiplexing is what lets the open-loop load generator
drive a single connection at rates far past the backend's capacity,
which is the whole point of an overload bench.  A caller waits for the
socket only between the transport's ``pause_writing`` and
``resume_writing``.

:class:`InProcessClient` presents the same ``probe``/``scan`` surface
directly on an :class:`~repro.serve.admission.AdmissionController`,
skipping sockets and framing entirely.  The saturation bench uses it so
the measured knee is the *admission pipeline and backend's*, not the
wire codec's; the CI smoke job uses the TCP client so the wire path
stays exercised end to end.

Both raise :class:`~repro.errors.RequestRejected` with the server's
rejection code, so callers handle shed/rate-limit/deadline uniformly,
and :class:`~repro.errors.FrontendError` for a request that is wrong in
itself — what no request frame can hold (``bad-request``, raised before
anything is sent), an empty range, a deadline that is no number — and
for an answer that is not the kind that was asked for.
Transport failures — connection reset, EOF mid-frame, EOF with
responses still owed — surface as the *retryable*
:class:`~repro.errors.TransportError`, and the TCP client reconnects
lazily on the next call, so a frontend restart costs exactly the
requests that were in flight when it died (which the resilient client
then retries elsewhere).
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any

from ..core.queries import ProbeResult, ScanResult
from ..errors import (
    BackendError,
    FrontendError,
    RequestRejected,
    TransportError,
)
from . import protocol
from .admission import AdmissionController


def _result(kind: str, response: dict[str, Any]) -> Any:
    """Return the result ``response`` carries, held to the op asked."""
    if response.get("kind") != kind:
        raise FrontendError(
            f"malformed answer: a {kind} was answered with "
            f"kind {response.get('kind')!r}"
        )
    return protocol.result_from_wire(response)


class _Connection(protocol.FramedConnection):
    """The client's end of one connection; a reconnect makes another."""

    def __init__(self, client: FrontendClient) -> None:
        super().__init__()
        self.client = client
        #: Pending between ``pause_writing`` and ``resume_writing``
        #: (or the loss of the connection); senders wait on it.
        self.paused: asyncio.Future | None = None

    def payload_received(self, payload: bytes) -> None:
        self.client._settle(protocol.decode_frame(payload))

    def stream_torn(self, exc: FrontendError) -> None:
        # EOF mid-prefix or mid-frame, an oversized frame, a payload
        # that is not a message, a message that is not a response: the
        # peer is not speaking the protocol, so nothing later on this
        # stream can be trusted.
        self.client._disconnected(self, TransportError(f"torn stream: {exc}"))

    def connection_lost(self, exc: Exception | None) -> None:
        # EOF between frames lands here with ``None``.  With responses
        # still owed that is a torn stream too (the server died
        # mid-conversation); either way the connection is gone.
        self.client._disconnected(
            self,
            TransportError(
                "server closed the connection" if exc is None
                else f"connection lost: {exc}"
            ),
        )
        self.resume_writing()
        super().connection_lost(exc)

    def pause_writing(self) -> None:
        self.paused = self._loop.create_future()

    def resume_writing(self) -> None:
        if self.paused is not None:
            self.paused.set_result(None)
            self.paused = None


class FrontendClient:
    """Async TCP client with response multiplexing and lazy reconnect."""

    def __init__(self) -> None:
        self._connection: _Connection | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._host: str | None = None
        self._port: int | None = None
        self._closed = False
        #: The reconnect in flight, shared by every caller that found
        #: the connection gone while it was being opened.
        self._opening: asyncio.Future | None = None
        #: Successful reconnects after a torn connection (observability).
        self.reconnects = 0

    async def connect(self, host: str, port: int) -> "FrontendClient":
        """Open the connection."""
        self._host = host
        self._port = port
        self._closed = False
        await self._open()
        return self

    async def _open(self) -> _Connection:
        assert self._host is not None and self._port is not None
        try:
            _, connection = await asyncio.get_running_loop().create_connection(
                lambda: _Connection(self), self._host, self._port
            )
        except (ConnectionError, OSError) as exc:
            raise TransportError(
                f"connect to {self._host}:{self._port} failed: {exc}"
            ) from exc
        self._connection = connection
        return connection

    async def _reconnect(self) -> _Connection:
        if self._closed or self._host is None:
            raise FrontendError("client is not connected")
        # Lazy reconnect: the previous connection tore (its in-flight
        # requests already failed with TransportError); this call gets
        # a fresh one against the same address.  Callers that arrive
        # while it is being opened wait for the same one — each opening
        # its own would leave all but the last unowned and never closed.
        if self._opening is None:
            self._opening = asyncio.ensure_future(self._reopen())
            self._opening.add_done_callback(self._reopened)
        # Shielded: a cancelled caller must not cancel the others' open.
        return await asyncio.shield(self._opening)

    async def _reopen(self) -> _Connection:
        connection = await self._open()
        if self._closed:  # closed while it was being opened
            self._connection = None
            connection.close()
            await connection.closed
            raise FrontendError("client is not connected")
        self.reconnects += 1
        return connection

    def _reopened(self, opening: asyncio.Future) -> None:
        self._opening = None
        if not opening.cancelled():
            opening.exception()  # retrieved: every waiter may be gone

    async def close(self) -> None:
        """Close the connection; outstanding requests fail."""
        self._closed = True
        if self._opening is not None:
            await asyncio.wait([self._opening])  # it closes what it opened
        connection, self._connection = self._connection, None
        if connection is not None:
            connection.close()
            await connection.closed
        self._fail_pending(FrontendError("connection closed"))

    async def __aenter__(self) -> "FrontendClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------

    async def probe(
        self,
        value: Any,
        t1: int,
        t2: int,
        *,
        tenant: str = "default",
        deadline_ms: float | None = None,
    ) -> ProbeResult:
        """Timed index probe for ``value`` over days ``[t1, t2]``.

        The result's ``entries`` is a checked
        :class:`~repro.index.codec.EntryBlock`: equal to the tuple an
        in-process caller gets and decoded to it when first read;
        ``record_ids`` comes from the block's id column without that.
        """
        return _result("probe", await self._request({
            "op": "probe", "value": value, "t1": t1, "t2": t2,
            "tenant": tenant, "deadline_ms": deadline_ms,
        }))

    async def scan(
        self,
        t1: int,
        t2: int,
        *,
        tenant: str = "default",
        deadline_ms: float | None = None,
    ) -> ScanResult:
        """Timed segment scan over days ``[t1, t2]``."""
        return _result("scan", await self._request({
            "op": "scan", "t1": t1, "t2": t2,
            "tenant": tenant, "deadline_ms": deadline_ms,
        }))

    async def ping(self) -> bool:
        """Health check; bypasses admission on the server."""
        return (await self._request({"op": "ping"})).get("result") == "pong"

    async def stats(self) -> dict[str, Any]:
        """Scrape the server's metrics snapshot."""
        return (await self._request({"op": "stats"})).get("result")

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    async def _request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send ``message``; return the ``ok`` response message."""
        connection = self._connection
        if connection is None:
            connection = await self._reconnect()
        while connection.paused is not None:
            await connection.paused
        if connection is not self._connection:
            raise TransportError("connection lost before send")
        request_id = next(self._ids)
        message["id"] = request_id
        frame = protocol.encode_frame(message)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        connection.send(frame, alone=len(self._pending) == 1)
        try:
            # Settled with the result, the server's rejection, or the
            # TransportError a torn connection failed it with.
            return await future
        finally:
            self._pending.pop(request_id, None)

    def _disconnected(self, connection: _Connection, exc: Exception) -> None:
        # Guard by identity: a connection that tore must not take down
        # the replacement it was already superseded by.
        if self._connection is not connection:
            return
        self._connection = None
        connection.transport.close()
        self._fail_pending(exc)

    def _settle(self, response: dict[str, Any]) -> None:
        """Settle the caller ``response`` answers.

        A response to a request no longer pending is ignored; one that
        cannot be routed or read at all — an ``id`` that is no
        correlation number, an ``error`` that is no object — raises
        :class:`~repro.errors.FrontendError`, which costs the connection.
        """
        try:
            future = self._pending.get(response.get("id"))
        except TypeError:  # unhashable: a list or an object
            raise FrontendError(
                f"response id {response.get('id')!r} is no correlation number"
            ) from None
        if future is None or future.done():
            return
        if response.get("ok"):
            future.set_result(response)
            return
        error = response.get("error") or {}
        if not isinstance(error, dict):
            raise FrontendError(f"response error {error!r} is no object")
        code = error.get("code", "internal")
        message = error.get("message", "")
        if code == "backend-error":
            future.set_exception(BackendError(message or code))
        elif code in ("bad-request", "internal", "response-too-large"):
            future.set_exception(FrontendError(f"{code}: {message}"))
        else:
            future.set_exception(RequestRejected(code, message))

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()


def _seconds(deadline_ms: Any) -> float | None:
    """Return ``deadline_ms`` in seconds, checked as a request frame's is."""
    if deadline_ms is None:
        return None
    protocol.check_deadline(deadline_ms)
    return deadline_ms / 1e3


class InProcessClient:
    """The client surface directly on an admission controller.

    A request that is wrong in itself — an empty range, a deadline that
    is no number — is refused here as the server refuses it: before
    admission, with :class:`~repro.errors.FrontendError`.
    """

    def __init__(self, controller: AdmissionController) -> None:
        self.controller = controller

    async def probe(
        self,
        value: Any,
        t1: int,
        t2: int,
        *,
        tenant: str = "default",
        deadline_ms: float | None = None,
    ) -> ProbeResult:
        protocol.check_range(t1, t2)
        return await self.controller.submit(
            "probe", (value, t1, t2), tenant=tenant,
            deadline_s=_seconds(deadline_ms),
        )

    async def scan(
        self,
        t1: int,
        t2: int,
        *,
        tenant: str = "default",
        deadline_ms: float | None = None,
    ) -> ScanResult:
        protocol.check_range(t1, t2)
        return await self.controller.submit(
            "scan", (t1, t2), tenant=tenant,
            deadline_s=_seconds(deadline_ms),
        )

    async def ping(self) -> bool:
        return True

    async def close(self) -> None:  # symmetry with the TCP client
        return None


__all__ = ["FrontendClient", "InProcessClient"]

"""Clients for the serving frontend: TCP and in-process.

:class:`FrontendClient` speaks the wire protocol over one TCP
connection with request multiplexing — any number of requests may be in
flight at once; a background reader task settles each response future
by its correlation id.  That multiplexing is what lets the open-loop
load generator drive a single connection at rates far past the
backend's capacity, which is the whole point of an overload bench.

:class:`InProcessClient` presents the same ``probe``/``scan`` surface
directly on an :class:`~repro.serve.admission.AdmissionController`,
skipping sockets and framing entirely.  The saturation bench uses it so
the measured knee is the *admission pipeline and backend's*, not the
wire codec's; the CI smoke job uses the TCP client so the wire path
stays exercised end to end.

Both raise :class:`~repro.errors.RequestRejected` with the server's
rejection code, so callers handle shed/rate-limit/deadline uniformly.
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


class FrontendClient:
    """Async TCP client with response multiplexing and lazy reconnect."""

    def __init__(self) -> None:
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._reader_task: asyncio.Task | None = None
        self._write_lock = asyncio.Lock()
        self._host: str | None = None
        self._port: int | None = None
        self._closed = False
        #: Successful reconnects after a torn connection (observability).
        self.reconnects = 0

    async def connect(self, host: str, port: int) -> "FrontendClient":
        """Open the connection and start the response reader."""
        self._host = host
        self._port = port
        self._closed = False
        await self._open()
        return self

    async def _open(self) -> None:
        assert self._host is not None and self._port is not None
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port
            )
        except (ConnectionError, OSError) as exc:
            raise TransportError(
                f"connect to {self._host}:{self._port} failed: {exc}"
            ) from exc
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_responses(self._reader), name="repro-client-reader"
        )

    async def _ensure_connected(self) -> None:
        if self._writer is not None:
            return
        if self._closed or self._host is None:
            raise FrontendError("client is not connected")
        # Lazy reconnect: the previous connection tore (its in-flight
        # requests already failed with TransportError); this call gets
        # a fresh one against the same address.
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        await self._open()
        self.reconnects += 1

    async def close(self) -> None:
        """Close the connection; outstanding requests fail."""
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._reader = None
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
        response = await self._request(
            {
                "op": "probe", "value": value, "t1": t1, "t2": t2,
                "tenant": tenant,
                **(
                    {} if deadline_ms is None
                    else {"deadline_ms": deadline_ms}
                ),
            }
        )
        result = protocol.result_from_wire(response)
        assert isinstance(result, ProbeResult)
        return result

    async def scan(
        self,
        t1: int,
        t2: int,
        *,
        tenant: str = "default",
        deadline_ms: float | None = None,
    ) -> ScanResult:
        """Timed segment scan over days ``[t1, t2]``."""
        response = await self._request(
            {
                "op": "scan", "t1": t1, "t2": t2, "tenant": tenant,
                **(
                    {} if deadline_ms is None
                    else {"deadline_ms": deadline_ms}
                ),
            }
        )
        result = protocol.result_from_wire(response)
        assert isinstance(result, ScanResult)
        return result

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
        await self._ensure_connected()
        request_id = next(self._ids)
        message["id"] = request_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                if self._writer is None:
                    raise TransportError("connection lost before send")
                try:
                    protocol.write_frame(self._writer, message)
                    await self._writer.drain()
                except (ConnectionError, OSError) as exc:
                    self._drop_connection(
                        TransportError(f"send failed: {exc}")
                    )
            # Settled with the result, the server's rejection, or the
            # TransportError a torn connection failed it with.
            return await future
        finally:
            self._pending.pop(request_id, None)

    async def _read_responses(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                response = await protocol.read_frame(reader)
                if response is None:
                    # Clean EOF.  With responses still owed this is a
                    # torn stream (the server died mid-conversation);
                    # either way the connection is gone.
                    self._disconnected(
                        reader,
                        TransportError("server closed the connection"),
                    )
                    return
                self._settle(response)
        except FrontendError as exc:
            # protocol.read_frame: EOF mid-prefix or mid-frame, or a
            # payload that is not a message; _settle: a message that is
            # not a response.  Either way the peer is not speaking the
            # protocol, so nothing later on this stream can be trusted.
            self._disconnected(reader, TransportError(f"torn stream: {exc}"))
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError) as exc:
            self._disconnected(
                reader, TransportError(f"connection lost: {exc}")
            )

    def _disconnected(self, reader: asyncio.StreamReader, exc: Exception) -> None:
        # Guard by identity: a reader task from a torn connection must
        # not take down the replacement it was already superseded by.
        if self._reader is not reader:
            return
        self._drop_connection(exc)

    def _drop_connection(self, exc: Exception) -> None:
        self._reader = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None
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


class InProcessClient:
    """The client surface directly on an admission controller."""

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
        return await self.controller.submit(
            "probe", (value, t1, t2), tenant=tenant,
            deadline_s=None if deadline_ms is None else deadline_ms / 1e3,
        )

    async def scan(
        self,
        t1: int,
        t2: int,
        *,
        tenant: str = "default",
        deadline_ms: float | None = None,
    ) -> ScanResult:
        return await self.controller.submit(
            "scan", (t1, t2), tenant=tenant,
            deadline_s=None if deadline_ms is None else deadline_ms / 1e3,
        )

    async def ping(self) -> bool:
        return True

    async def close(self) -> None:  # symmetry with the TCP client
        return None


__all__ = ["FrontendClient", "InProcessClient"]

"""Shared fakes for the serving-frontend tests.

The admission tests run on fake backends and a virtual-time loop
(:func:`run`) so every time-dependent path (bucket refill,
queued-deadline expiry) is exact, with no real sleeping.
"""

import asyncio
import json
import struct

from repro.serve import protocol, vtime

from . import streams


def feed_reader(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    """Build a pre-fed reader (must run inside the event loop)."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


async def read_from(data: bytes, eof: bool = True):
    """``streams.read_frame`` on a stream holding exactly ``data``."""
    return await streams.read_frame(feed_reader(data, eof))


def request_frame(
    request_id,
    op: str,
    *,
    value=None,
    t1=1,
    t2=7,
    tenant: str = "default",
    deadline_ms=None,
) -> bytes:
    """One probe or scan request frame, as ``FrontendClient`` sends it."""
    message = {
        "id": request_id, "op": op, "t1": t1, "t2": t2,
        "tenant": tenant, "deadline_ms": deadline_ms,
    }
    if op == "probe":
        message["value"] = value
    return protocol.encode_frame(message)


def raw_frame(payload: bytes) -> bytes:
    """One frame holding ``payload``, whatever it is."""
    return struct.pack(">I", len(payload)) + payload


def json_frame(message) -> bytes:
    """One JSON frame holding any JSON value, message or not."""
    return raw_frame(json.dumps(message).encode("utf-8"))


class RecordingTransport(asyncio.Transport):
    """A transport that keeps what it is handed, one entry per ``write``."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[bytes] = []
        self.closing = False

    def write(self, data) -> None:
        self.writes.append(bytes(data))

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True

    abort = close


def split_frames(data: bytes) -> list[dict]:
    """Decode the back-to-back frames in ``data`` (which must end on one)."""
    splitter = protocol.FrameSplitter()
    messages = [protocol.decode_frame(p) for p in splitter.split(data)]
    assert splitter.torn() is None
    return messages


def run(coro):
    """Run ``coro`` to its end on a fresh virtual-time loop."""
    return vtime.run(coro)


def advance(seconds: float) -> None:
    """Move the running virtual-time loop's clock without yielding."""
    asyncio.get_running_loop().advance(seconds)


class EchoBackend:
    """Instant backend: answers derived from the specs, call log kept.

    Its coroutines compute without yielding, as a
    :class:`~repro.serve.admission.CoordinatorBackend` does.
    """

    def __init__(self) -> None:
        self.probe_calls: list[list] = []
        self.scan_calls: list[list] = []

    async def probe_many(self, specs):
        self.probe_calls.append(list(specs))
        return [("probe", spec) for spec in specs]

    async def scan_many(self, specs):
        self.scan_calls.append(list(specs))
        return [("scan", spec) for spec in specs]


class GateBackend(EchoBackend):
    """Backend that waits on the loop until released.

    ``entered`` is set when a call arrives; the call is logged, and
    answered, only once ``release`` is set.
    """

    def __init__(self) -> None:
        super().__init__()
        self.release = asyncio.Event()
        self.entered = asyncio.Event()

    async def probe_many(self, specs):
        self.entered.set()
        await self.release.wait()
        return await super().probe_many(specs)

    async def scan_many(self, specs):
        self.entered.set()
        await self.release.wait()
        return await super().scan_many(specs)

"""Shared fakes for the serving-frontend tests.

The admission tests run on fake backends and a fake clock so every
time-dependent path (bucket refill, queued-deadline expiry) is exact,
with no real sleeping.
"""

import asyncio
import json
import struct
import threading

import pytest

from repro.serve import protocol

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


class FakeClock:
    """Manually-advanced monotonic clock."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class EchoBackend:
    """Instant backend: answers derived from the specs, call log kept.

    It does not say it only computes, so the controller runs it on an
    executor thread; :func:`computing` makes the twin it calls on the
    loop.  ``threads`` holds the thread of every call.
    """

    def __init__(self) -> None:
        self.probe_calls: list[list] = []
        self.scan_calls: list[list] = []
        self.threads: list[int] = []

    def probe_many(self, specs):
        self.threads.append(threading.get_ident())
        self.probe_calls.append(list(specs))
        return [("probe", spec) for spec in specs]

    def scan_many(self, specs):
        self.threads.append(threading.get_ident())
        self.scan_calls.append(list(specs))
        return [("scan", spec) for spec in specs]


def computing(backend_cls):
    """``backend_cls`` declared a backend that only computes."""
    return type(f"Computing{backend_cls.__name__}", (backend_cls,), {
        "computes_only": True,
    })


class GateBackend(EchoBackend):
    """Backend that blocks in the worker thread until released."""

    def __init__(self) -> None:
        super().__init__()
        self.release = threading.Event()
        self.entered = threading.Event()

    def probe_many(self, specs):
        self.entered.set()
        assert self.release.wait(10), "test forgot to release the gate"
        return super().probe_many(specs)

    def scan_many(self, specs):
        self.entered.set()
        assert self.release.wait(10), "test forgot to release the gate"
        return super().scan_many(specs)


@pytest.fixture
def clock():
    return FakeClock()

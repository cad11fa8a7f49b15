"""The span wrappers: attributes come back, self times add up."""

import asyncio
import contextvars
import inspect
import time
import types

from perf.ledger import install_spans
from perf.trace import Tracer
from repro.cluster import ClusterCoordinator
from repro.core.wave import WaveIndex
from repro.serve import FrontendClient, protocol


class Layers:
    def outer(self):
        time.sleep(0.002)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.001)

    async def request(self):
        await asyncio.sleep(0.001)
        self.inner()


def test_uninstall_restores_the_original_attributes():
    module = types.ModuleType("fake")
    module.encode = lambda message: b"x"
    originals = {
        (Layers, "outer"): inspect.getattr_static(Layers, "outer"),
        (Layers, "request"): inspect.getattr_static(Layers, "request"),
        (module, "encode"): module.encode,
    }
    tracer = Tracer()
    for owner, attr in originals:
        tracer.install(owner, attr, attr)
        assert inspect.getattr_static(owner, attr) is not originals[owner, attr]
    tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert inspect.getattr_static(owner, attr) is original


def test_install_spans_leaves_the_program_as_it_found_it():
    targets = [
        (FrontendClient, "probe"), (protocol, "encode_frame"),
        (ClusterCoordinator, "probe_many"), (WaveIndex, "scan_many"),
    ]
    before = [inspect.getattr_static(owner, attr) for owner, attr in targets]
    tracer = Tracer()
    install_spans(tracer)
    assert all(
        inspect.getattr_static(owner, attr) is not original
        for (owner, attr), original in zip(targets, before)
    )
    tracer.uninstall()
    assert [inspect.getattr_static(owner, attr) for owner, attr in targets] == before


def test_nothing_is_recorded_outside_a_section():
    tracer = Tracer()
    tracer.install(Layers, "inner", "inner")
    try:
        Layers().inner()
    finally:
        tracer.uninstall()
    assert tracer.spans == []


def test_self_times_are_non_negative_and_sum_to_the_root_span():
    tracer = Tracer()
    for attr in ("outer", "inner", "request"):
        tracer.install(Layers, attr, attr)
    tracer.section = "lone"
    try:
        layers = Layers()
        layers.outer()
        asyncio.run(layers.request())
    finally:
        tracer.uninstall()
    self_s = tracer.self_seconds()
    assert all(seconds >= 0 for seconds in self_s.values())
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["outer", "request"]
    for root in roots:
        tree = [s for s in tracer.spans if s is root or s.parent is root]
        total = sum(self_s[id(s)] for s in tree)
        assert abs(total - root.seconds) < 1e-9
    assert [s.parent.name for s in tracer.spans if s.name == "inner"] == [
        "outer", "outer", "request",
    ]


def test_orphans_are_adopted_by_the_innermost_containing_span():
    tracer = Tracer()
    tracer.install(Layers, "inner", "inner")
    tracer.section = "lone"
    try:
        layers = Layers()
        # Run ``inner`` in another context while a span is open here,
        # the way an executor thread runs the backend call.
        span, token = tracer._open("client")
        contextvars.Context().run(layers.inner)
        tracer._close(span, token)
    finally:
        tracer.uninstall()
    client, inner = tracer.spans
    assert inner.parent is None
    tracer.adopt_orphans({"lone"})
    assert inner.parent is client
    self_s = tracer.self_seconds()
    assert abs(self_s[id(client)] + self_s[id(inner)] - client.seconds) < 1e-9

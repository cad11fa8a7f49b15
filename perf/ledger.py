"""The per-layer ledger: which spans are recorded and what they add up to.

Per-request times come from the *lone-caller* section of the traced
rounds, where one request is in flight at a time and a span's self time
(its duration minus its children) is well defined.  Queue wait, batch
size, fan-out and bucket sharing come from the *loaded* section, the
only place batches form.  Storage counts come from device snapshots
around the lone-caller block and the turn, in every round of the run.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any

from repro.cluster import ClusterCoordinator, ClusterSimulation
from repro.core.executor import PlanExecutor
from repro.core.ops import AddOp, BuildOp, DeleteOp, UpdateOp
from repro.core.wave import WaveIndex
from repro.serve import (
    AdmissionController,
    CoordinatorBackend,
    FrontendClient,
    InProcessClient,
    ResilientClient,
    protocol,
)

from . import metrics as names
from .harness import Run, speed_factors, spin
from .trace import Span, Tracer

#: Times the peel sends its probes in at each boundary.
PEEL_PASSES = 5

_OP_KINDS = {BuildOp: "build", AddOp: "add", DeleteOp: "delete", UpdateOp: "update"}


def _wave_counts(args: tuple, out: Any) -> dict[str, float]:
    return {
        "requests": out.summary.requests,
        "entries": sum(len(r.entries) for r in out.results),
        "dup_hits": out.summary.duplicate_hits,
        "buckets_read": out.summary.buckets_read,
    }


def install_spans(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer on the request path."""
    tracer.install(FrontendClient, "probe", "client.probe")
    tracer.install(FrontendClient, "scan", "client.scan")
    tracer.install(
        protocol, "encode_frame", "protocol.encode",
        lambda args, out: {"resp_bytes": len(out)} if "ok" in args[0] else {},
    )
    tracer.install(protocol, "decode_frame", "protocol.decode")
    tracer.install(protocol, "result_to_wire", "protocol.to_wire")
    tracer.install(protocol, "result_from_wire", "protocol.from_wire")
    tracer.install(AdmissionController, "submit", "admission.submit")
    tracer.install(CoordinatorBackend, "probe_many", "backend.call")
    tracer.install(CoordinatorBackend, "scan_many", "backend.call")
    tracer.install(
        ClusterCoordinator, "probe_many", "coord.probe",
        lambda args, out: {"fanout": out.summary.shards_queried},
    )
    tracer.install(ClusterCoordinator, "scan_many", "coord.scan")
    tracer.install(WaveIndex, "probe_many", "wave.probe", _wave_counts)
    tracer.install(WaveIndex, "scan_many", "wave.scan")
    tracer.install(ClusterSimulation, "run_transition", "sim.turn")
    tracer.install(
        PlanExecutor, "execute_op", "executor.op",
        lambda args, out: {_OP_KINDS.get(type(args[1]), "other"): 1},
    )


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


async def per_layer(run: Run) -> dict[str, tuple[float, int]]:
    """Run the traced rounds and the peel; return ``name -> (value, n)``."""
    untraced = list(run.rounds)
    tracer = run.tracer = Tracer()
    install_spans(tracer)
    try:
        traced = await run.run_rounds(run.traced_rounds)
    finally:
        tracer.uninstall()
        run.tracer = None
    tracer.adopt_orphans({"turn", "cold", "lone", "scan"})
    self_s = tracer.self_seconds()

    by_block: dict[tuple[str, str], list[Span]] = {}
    for span in tracer.spans:
        by_block.setdefault((span.section, span.name), []).append(span)

    def spans(section: str, name: str) -> list[Span]:
        return by_block.get((section, name), [])

    def self_us(section: str, name: str, per: int) -> float:
        return sum(self_s[id(s)] for s in spans(section, name)) / per * 1e6

    def count(section: str, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in spans(section, name))

    w = run.workload
    n_lone = w.lone_probes * len(traced)
    n_scans = w.warm_scans * len(traced)
    n_turns = len(traced)
    every = untraced + traced
    out: dict[str, tuple[float, int]] = {}

    def put(name: str, value: float, n: int) -> None:
        out[name] = (float(value), n)

    requests = spans("lone", "client.probe")
    put("client.req_us", sum(s.seconds for s in requests) / n_lone * 1e6, len(requests))
    put("server.loop_tcp_us", self_us("lone", "client.probe", n_lone), len(requests))
    loaded = [s.seconds * 1e3 for s in spans("load", "client.probe")]
    put("client.p95_ms", _quantile(loaded, 0.95), len(loaded))
    put("client.p99_ms", _quantile(loaded, 0.99), len(loaded))
    for short in ("to_wire", "encode", "decode", "from_wire"):
        put(f"protocol.{short}_us", self_us("lone", f"protocol.{short}", n_lone), n_lone)
    responses = [s for s in spans("lone", "protocol.encode") if "resp_bytes" in s.counts]
    put(
        "protocol.resp_bytes",
        statistics.fmean(s.counts["resp_bytes"] for s in responses) if responses else 0,
        len(responses),
    )
    put("admission.submit_us", self_us("lone", "admission.submit", n_lone), n_lone)
    put("backend.lock_hop_us", self_us("lone", "backend.call", n_lone), n_lone)
    for name in ("admission.queue_wait_us", "admission.batch_size"):
        put(name, run.estimate(name, traced), len(traced))
    put("coord.self_us", self_us("lone", "coord.probe", n_lone), n_lone)
    calls = spans("load", "coord.probe")
    put("coord.fanout", count("load", "coord.probe", "fanout") / max(1, len(calls)), len(calls))
    put("wave.probe_us", self_us("lone", "wave.probe", n_lone), n_lone)
    put("wave.scan_us", self_us("scan", "wave.scan", n_scans), n_scans)
    put("wave.entries_per_probe", count("lone", "wave.probe", "entries") / n_lone, n_lone)
    n_load = max(1, count("load", "wave.probe", "requests"))
    put("wave.dup_hits", count("load", "wave.probe", "dup_hits") / n_load, int(n_load))
    put("wave.buckets_read", count("load", "wave.probe", "buckets_read") / n_load, int(n_load))
    for name in names.PER_LAYER:
        if name.startswith("storage.") or name in ("gc.collect_ms", "harness.speed_factor"):
            put(name, run.estimate(name, every), len(every))
    ops = spans("turn", "executor.op")
    for kind in ("build", "add", "delete", "update", "other"):
        put(
            f"executor.{kind}_ms",
            sum(s.seconds for s in ops if kind in s.counts) / n_turns * 1e3,
            sum(1 for s in ops if kind in s.counts),
        )
    put("sim.turn_self_ms", self_us("turn", "sim.turn", n_turns) / 1e3, n_turns)
    put("post_turn.scan_ms", run.estimate("post_turn.scan_ms", every), len(every))
    put(
        "harness.trace_overhead_share",
        run.estimate("probe_p50_ms", traced) / run.estimate("probe_p50_ms", untraced) - 1,
        len(traced),
    )
    put(
        "harness.ledger_residual_share",
        out["server.loop_tcp_us"][0] / out["client.req_us"][0] if requests else 0.0,
        len(requests),
    )
    for name in names.TIMED:
        put(f"raw.{name}", run.raw(name), len(run.setups if name == "setup_s" else untraced))
    put("gc.gen2_count", run.gen2_count(), 1)
    out.update(await _peel(run))
    out.update(await _stats_op(run))
    return out


async def _stats_op(run: Run) -> dict[str, tuple[float, int]]:
    """Time one ``stats`` scrape (the coordinator's registry off TCP)."""
    start = perf_counter()
    if run.path.clients:
        await run.path.clients[0].stats()
    else:
        run.sim.obs.snapshot()
    return {"obs.stats_ms": ((perf_counter() - start) * 1e3, 1)}


async def _peel(run: Run) -> dict[str, tuple[float, int]]:
    """Send the same lone-caller probes in at each layer boundary."""
    sim, path = run.sim, run.path
    specs = run.requests.probes(run.day, "lone", run.workload.lone_probes)
    owners = sim.partitioner.shards_for_many([value for value, _, _ in specs])
    waves = [sim.shards[shard_id].primary.wave for shard_id in owners]

    async def wave(i: int) -> Any:
        return waves[i].probe_many([specs[i]])

    async def coord(i: int) -> Any:
        return sim.coordinator.probe_many([specs[i]])

    levels = {"wave": wave, "coord": coord}
    if path.server is not None:
        inproc = InProcessClient(path.server.controller)
        resilient = ResilientClient([path.clients[0]])
        levels["inproc"] = lambda i: inproc.probe(*specs[i])
        levels["tcp"] = lambda i: path.clients[0].probe(*specs[i])
        levels["resilient"] = lambda i: resilient.probe(*specs[i])
    # Passes over the levels are interleaved, and a level reports the
    # median of its passes, for the reason rounds are (README rule 2).
    passes: dict[str, list[float]] = {level: [] for level in levels}
    for _ in range(PEEL_PASSES):
        for level, call in levels.items():
            before = spin()
            start = perf_counter()
            for i in range(len(specs)):
                await call(i)
            raw = perf_counter() - start
            passes[level].append(
                raw / speed_factors([before, spin()])[0] / len(specs) * 1e6
            )
    out: dict[str, tuple[float, int]] = {}
    for level in ("wave", "coord", "inproc", "tcp", "resilient"):
        samples = passes.get(level)
        out[f"peel.{level}_us"] = (
            (statistics.median(samples), len(samples) * len(specs)) if samples else (0.0, 0)
        )
    (tcp, n), bare = out["peel.tcp_us"], out["peel.wave_us"][0]
    out["peel.e2e_overhead_ratio"] = (tcp / bare if tcp else 0.0, n)
    return out

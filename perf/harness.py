"""Set-up, interleaved rounds, speed normalisation, end-to-end metrics.

A run is ``SETUPS`` set-ups (the last one is kept), ``WARMUP_ROUNDS``
discarded rounds, then whole wave cycles of measured rounds.
One round is::

    full collection -> day turn -> cold block (first 32 probes, first scan)
                    -> throughput block -> lone-caller block -> warm scans

Every block is fixed work generated from the seed.  :func:`spin` samples
the host's speed between blocks; a round's timings are divided by what
its samples say (:func:`speed_factors`), and :meth:`Run.estimate` turns
the per-round values into one number.  ``README.md`` gives the
measurements behind each of these choices.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
from time import perf_counter
from typing import Any

from repro.errors import ReproError
from repro.index.config import IndexConfig

from . import metrics as names
from .oracle import Oracle
from .trace import Tracer
from .workloads import (
    COLD_PROBES,
    SETUP_TURNS,
    WINDOW,
    Requests,
    Workload,
    build_cluster,
    open_path,
)

#: Seconds one calibration kernel takes on the machine the seed numbers
#: in README.md were measured on, when that machine is quiet.  Timed
#: blocks are reported as if the host ran the kernel in exactly this time.
SPIN_REF_S = 0.0050

SETUPS = 3
WARMUP_ROUNDS = 2
#: Measured rounds come in whole wave cycles of ``WINDOW`` days, so
#: every phase of the wave is measured equally often.  ``--seconds`` is
#: a request for work, not a stopwatch: it buys one cycle per this many
#: seconds, about what a cycle takes on the reference machine.
CYCLE_SECONDS = 4.0
#: ``--trace 1`` runs whole cycles too: untraced, then traced.
UNTRACED_CYCLES = 1
TRACED_CYCLES = 1


def _kernel() -> float:
    start = perf_counter()
    table = {}
    for i in range(6000):
        table[(i, i & 7)] = (i, str(i))
    rows = json.loads(json.dumps([[i * 7919 % 4001, i % 7, None] for i in range(4000)]))
    rows.sort()
    sorted(table.values(), key=lambda pair: pair[1])
    return perf_counter() - start


def spin() -> list[float]:
    """Sample the host's current speed: seconds for a fixed calibration
    kernel of dict/tuple churn, a JSON round trip and two sorts (the mix
    the serving stack itself runs), twice, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [_kernel() for _ in range(2)]
    finally:
        if enabled:
            gc.enable()


def speed_factors(spins: list[list[float]]) -> tuple[float, float]:
    """Return how much slower than the reference the host ran while
    ``spins`` were sampled, as ``(average, sustained)``: the mean and
    the lower quartile of the samples over ``SPIN_REF_S``.

    A block that reports a total (a turn, a throughput block) absorbs
    every short stall of the host and is divided by the average.  A
    block that reports the median of many short requests ignores them
    and is divided by the sustained factor, which ignores them too.
    """
    samples = [s for spin in spins for s in spin]
    return (
        statistics.fmean(samples) / SPIN_REF_S,
        statistics.quantiles(samples, n=4)[0] / SPIN_REF_S,
    )


class Run:
    """One workload, one seed: set up, run rounds, report."""

    def __init__(
        self, workload: Workload, seed: int, *, quick: bool = False, seconds: float
    ) -> None:
        self.workload = workload.quick() if quick else workload
        self.seed = seed
        self.quick = quick
        self.warmup_rounds = 1 if quick else WARMUP_ROUNDS
        self.measured_rounds = (
            3 if quick else WINDOW * max(1, round(seconds / CYCLE_SECONDS))
        )
        self.untraced_rounds = 2 if quick else WINDOW * UNTRACED_CYCLES
        self.traced_rounds = 1 if quick else WINDOW * TRACED_CYCLES
        self.n_days = (
            WINDOW + SETUP_TURNS + self.warmup_rounds
            + max(self.measured_rounds, self.untraced_rounds + self.traced_rounds)
        )
        self.requests = Requests(self.workload, seed + 1)
        self.setups: list[dict[str, float]] = []
        self.rounds: list[dict[str, Any]] = []
        self.attempted = 0
        self.failed = 0
        self.day = WINDOW + SETUP_TURNS
        self.round_index = 0
        self.tracer: Tracer | None = None
        self.explicit_collections = 0
        self.gen2_before = 0
        self.store = self.sim = self.path = self.oracle = None

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    async def set_up(self) -> None:
        """Build corpus, cluster and serving path ``SETUPS`` times."""
        for _ in range(1 if self.quick else SETUPS):
            if self.path is not None:
                await self.path.close()
                self.store = self.sim = self.path = None
            gc.collect()
            before = spin()
            start = perf_counter()
            self.store, self.sim = build_cluster(self.workload, self.seed, self.n_days)
            self.path = await open_path(self.workload, self.sim)
            raw = perf_counter() - start
            self.setups.append(
                {"setup_s": raw / speed_factors([before, spin()])[0], "raw.setup_s": raw}
            )
        self.oracle = Oracle(self.store)

    async def close(self) -> None:
        if self.path is not None:
            await self.path.close()

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------

    def _section(self, name: str | None) -> None:
        if self.tracer is not None:
            self.tracer.section = name

    async def _one_at_a_time(
        self, call: Any, specs: list, keep: set[int]
    ) -> tuple[list[float], dict[int, Any], int]:
        """Issue ``specs`` from a lone caller; time each round trip."""
        seconds: list[float] = []
        kept: dict[int, Any] = {}
        failed = 0
        for i, spec in enumerate(specs):
            start = perf_counter()
            try:
                result = await call(spec)
            except ReproError:
                failed += 1
                continue
            seconds.append(perf_counter() - start)
            if i in keep:
                kept[i] = result
        return seconds, kept, failed

    async def round(self) -> dict[str, Any]:
        """Run one round; return its per-round values."""
        w, sim, path, oracle = self.workload, self.sim, self.path, self.oracle
        array = sim.array
        index = self.round_index
        self.round_index += 1
        self.day += 1
        day, oldest = self.day, self.day - WINDOW + 1
        cold = self.requests.probes(day, "cold", COLD_PROBES)
        load = self.requests.probes(day, "load", w.throughput_probes)
        lone = self.requests.probes(day, "lone", w.lone_probes)
        keep_load = self.requests.sample(index, "load", len(load))
        keep_lone = self.requests.sample(index, "lone", len(lone))
        scan = (day, day)
        failed = 0

        # Collect everything, then exempt what survives from the
        # collector until the next round: a full collection inside a
        # timed block then walks this round's garbage, not the corpus.
        start = perf_counter()
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        gc_s = perf_counter() - start
        self.explicit_collections += 1
        spins = [spin()]

        self._section("turn")
        io0, clock0 = array.io_snapshot(), array.total_clock
        start = perf_counter()
        try:
            sim.run_transition(day)
        except ReproError:
            failed += 1
        turn_s = perf_counter() - start
        turn_io, turn_sim_s = array.io_snapshot() - io0, array.total_clock - clock0
        high_water = array.high_water_bytes
        spins.append(spin())

        self._section("cold")
        cold_s, cold_kept, n = await self._one_at_a_time(
            path.probe, cold, set(range(len(cold)))
        )
        failed += n
        spins.append(spin())
        cold_scan_s, cold_scan_kept, n = await self._one_at_a_time(path.scan, [scan], {0})
        failed += n
        spins.append(spin())

        self._section("load")
        queue0 = self._admission_totals()
        start = perf_counter()
        load_kept, n = await path.throughput(load, keep_load)
        load_s = perf_counter() - start
        failed += n
        n_load_failed = n
        queue1 = self._admission_totals()
        spins.append(spin())

        self._section("lone")
        io2, clock2, cache2 = array.io_snapshot(), array.total_clock, array.cache_snapshot()
        lone_s, lone_kept, n = await self._one_at_a_time(path.probe, lone, keep_lone)
        failed += n
        lone_io, lone_sim_s = array.io_snapshot() - io2, array.total_clock - clock2
        cache = array.cache_snapshot() - cache2 if cache2 is not None else None
        spins.append(spin())

        self._section("scan")
        clock3 = array.total_clock
        warm_s, warm_kept, n = await self._one_at_a_time(
            path.scan, [scan] * w.warm_scans, {0}
        )
        failed += n
        scan_sim_s = array.total_clock - clock3
        spins.append(spin())
        self._section(None)

        # Untimed from here on: oracle and bookkeeping.
        for specs, kept in ((cold, cold_kept), (load, load_kept), (lone, lone_kept)):
            for i, result in kept.items():
                oracle.check_probe(specs[i], result)
        for kept in (cold_scan_kept, warm_kept):
            for result in kept.values():
                oracle.check_scan(scan, result)
        oracle.forget_before(oldest)
        self.attempted += 1 + len(cold) + 1 + len(load) + len(lone) + w.warm_scans
        self.failed += failed

        config = IndexConfig()
        window_bytes = config.bytes_for(
            sum(self.store.batch(d).entry_count for d in range(oldest, day + 1))
        )
        day_bytes = config.bytes_for(self.store.batch(day).entry_count)
        n_lone = max(1, len(lone))
        days_by_name = sim.shards[0].primary.wave.days_by_name()
        out = {
            "phase": next(len(days) for days in days_by_name.values() if day in days),
            "raw.turn_ms": turn_s * 1e3,
            "raw.post_turn_probe_ms": statistics.fmean(cold_s or [0.0]) * 1e3,
            "raw.post_turn.scan_ms": statistics.fmean(cold_scan_s or [0.0]) * 1e3,
            "raw.probe_qps": (len(load) - n_load_failed) / load_s,
            "raw.probe_p50_ms": statistics.median(lone_s or [0.0]) * 1e3,
            "raw.scan_p50_ms": statistics.median(warm_s or [0.0]) * 1e3,
            "space_amp": high_water / window_bytes,
            "sim_s_per_read": (lone_sim_s + scan_sim_s) / (n_lone + w.warm_scans),
            "storage.sim_s_per_probe": lone_sim_s / n_lone,
            "storage.sim_s_per_scan": scan_sim_s / w.warm_scans,
            "storage.seeks_per_probe": lone_io.seeks / n_lone,
            "storage.bytes_read_per_probe": lone_io.bytes_read / n_lone,
            "storage.cache_hit_rate": cache.hit_rate if cache else 0.0,
            "storage.cache_evictions": cache.evictions if cache else 0,
            "storage.turn_bytes_written": turn_io.bytes_written,
            "storage.write_amp": turn_io.bytes_written / day_bytes,
            "storage.turn_sim_s": turn_sim_s,
            "gc.collect_ms": gc_s * 1e3,
            "admission.queue_wait_us": _mean_delta(queue0, queue1, "wait") * 1e6,
            "admission.batch_size": _mean_delta(queue0, queue1, "batch"),
        }
        average, sustained = speed_factors(spins)
        out["harness.speed_factor"] = average
        for name in ("turn_ms", "post_turn_probe_ms", "post_turn.scan_ms", "scan_p50_ms"):
            out[name] = out["raw." + name] / average
        out["probe_qps"] = out["raw.probe_qps"] * average
        out["probe_p50_ms"] = out["raw.probe_p50_ms"] / sustained
        return out

    def _admission_totals(self) -> dict[str, tuple[int, float]]:
        """Return (count, total) of the server's queue-wait and
        batch-size histograms; empty off the TCP path."""
        server = self.path.server
        if server is None:
            return {}
        wait = server.obs.histogram("serve.latency.queue")
        batch = server.obs.histogram("serve.batch.size")
        return {"wait": (wait.count, wait.total), "batch": (batch.count, batch.total)}

    async def run_rounds(self, n: int) -> list[dict[str, Any]]:
        return [await self.round() for _ in range(n)]

    async def measure(self, n: int) -> None:
        """Warm up, then run ``n`` measured rounds."""
        await self.run_rounds(self.warmup_rounds)
        self.explicit_collections = 0
        self.gen2_before = gc.get_stats()[2]["collections"]
        self.rounds.extend(await self.run_rounds(n))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def estimate(self, name: str, rounds: list[dict[str, Any]] | None = None) -> float:
        """Return one number for ``name`` from per-round values: the
        median within each wave phase, averaged over the phases by how
        many rounds each had.  A phase is the number of days in the
        constituent the turn rewrote (4 or 3 with a window of 7 on 2
        constituents); turn and one-day-scan cost differ by phase, so a
        plain median over all rounds would sit on the edge between the
        two groups and jump with the smallest disturbance."""
        by_phase: dict[int, list[float]] = {}
        rounds = self.rounds if rounds is None else rounds
        for r in rounds:
            by_phase.setdefault(r["phase"], []).append(r[name])
        return sum(
            statistics.median(values) * len(values) for values in by_phase.values()
        ) / len(rounds)

    def setup_estimate(self, name: str) -> float:
        return statistics.median(s[name] for s in self.setups)

    def raw(self, name: str) -> float:
        """Return timed metric ``name`` before speed normalisation."""
        if name == "setup_s":
            return self.setup_estimate("raw.setup_s")
        return self.estimate("raw." + name)

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """Return ``name -> (value, samples)`` for every end-to-end metric."""
        out = {"setup_s": (self.setup_estimate("setup_s"), len(self.setups))}
        for name in names.END_TO_END:
            if name in self.rounds[0]:
                out[name] = (self.estimate(name), len(self.rounds))
        out["rss_peak_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        )
        return {name: out[name] for name in names.END_TO_END}

    def gen2_count(self) -> int:
        """Full collections the interpreter chose to run since warm-up."""
        return (
            gc.get_stats()[2]["collections"] - self.gen2_before
            - self.explicit_collections
        )

    def failure_count(self) -> int:
        """Errors, rejections and oracle mismatches so far."""
        return self.failed + self.oracle.mismatches


def _mean_delta(
    before: dict[str, tuple[int, float]], after: dict[str, tuple[int, float]], key: str
) -> float:
    if key not in before:
        return 0.0
    count = after[key][0] - before[key][0]
    return (after[key][1] - before[key][1]) / count if count else 0.0

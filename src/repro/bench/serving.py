"""The serving benchmark: batched, cached query replay on a SCAM window.

SCAM's serving load is ~100,000 timed probes a day against a 7-day window —
the paper costs every probe at a full ``seek + bucket/Trans`` because its
Section-5 model is memoryless and one-query-at-a-time.  This benchmark
measures what an actual serving layer gets back from the two obvious
system-side levers:

* **batching** — :meth:`~repro.core.wave.WaveIndex.probe_many` groups a
  Zipf-skewed request stream, dedups hot values, and sweeps each extent in
  offset order (amortized seeks);
* **caching** — a trace-driven :class:`~repro.storage.PageCache` keeps hot
  buckets resident, so repeated touches are memory-speed.

The replay grid crosses cache on/off with batch sizes {1, 16, 256} over the
*same* deterministic query stream; batch size 1 with no cache is exactly
the paper's model and serves as the baseline.  Results are written to
``BENCH_serving.json`` (see EXPERIMENTS.md for interpretation), asserting
the repo's committed perf trajectory: batched+cached serving at batch 256
must beat the baseline by at least 2x in simulated seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..cluster.sim import ClusterConfig, ClusterSimulation
from ..core.schemes import scheme_by_name
from ..index.config import IndexConfig
from ..obs import MetricsRegistry, Tracer
from ..storage.pagecache import DEFAULT_PAGE_SIZE
from ..workloads.zipf import ZipfSampler, heaps_vocabulary
from .harness import SCHEMA_VERSION, Bench, Schema, text_corpus


@dataclass(frozen=True)
class ServingBenchConfig:
    """Parameters of one serving-benchmark run.

    The defaults model SCAM in miniature: a 7-day window under the DEL
    scheme, Zipf-skewed probe values drawn from the indexed vocabulary,
    and a page cache sized to half the window's index (the memory-pressure
    regime where caching is a choice, not a given).
    """

    window: int = 7
    n_indexes: int = 2
    scheme: str = "DEL"
    docs_per_day: int = 120
    words_per_doc: int = 40
    probes: int = 2_000
    scans: int = 20
    zipf_s: float = 1.0
    batch_sizes: tuple[int, ...] = (1, 16, 256)
    cache_ratio: float = 0.5
    page_size: int = DEFAULT_PAGE_SIZE
    extra_days: int = 3
    seed: int = 7
    quick: bool = False

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.probes < 1:
            raise ValueError(f"probes must be >= 1, got {self.probes}")
        if self.scans < 0:
            raise ValueError(f"scans must be >= 0, got {self.scans}")
        if not self.batch_sizes or any(b < 1 for b in self.batch_sizes):
            raise ValueError(f"bad batch_sizes {self.batch_sizes}")
        if self.cache_ratio <= 0:
            raise ValueError(
                f"cache_ratio must be > 0, got {self.cache_ratio}"
            )


def quick_config(base: ServingBenchConfig | None = None) -> ServingBenchConfig:
    """Return a CI-sized variant of ``base`` (same grid, smaller replay)."""
    base = base or ServingBenchConfig()
    return replace(
        base,
        docs_per_day=40,
        probes=300,
        scans=5,
        quick=True,
    )


def _build_window(
    config: ServingBenchConfig, cache_bytes: int | None
) -> ClusterSimulation:
    """Build the SCAM-sized window the replay serves from: one shard on
    one device, with a page cache of ``cache_bytes`` if given.

    The scheme's start day builds the packed window; ``extra_days`` of
    transitions mix in incrementally maintained (CONTIGUOUS) constituents,
    so the replay sees the layout a live deployment would.
    """
    last_day = config.window + config.extra_days
    store, _ = text_corpus(config, last_day, config.seed)
    scheme_cls = scheme_by_name(config.scheme)
    sim = ClusterSimulation(
        lambda: scheme_cls(config.window, config.n_indexes),
        store,
        index_config=IndexConfig(),
        cluster=ClusterConfig(
            n_shards=1,
            maintenance="lockstep",
            page_cache_bytes=cache_bytes,
            page_size=config.page_size,
        ),
    )
    sim.run(last_day)
    return sim


def _zipf_values(config: ServingBenchConfig, vocabulary: int) -> list[str]:
    """Return the deterministic probe stream (same for every grid cell)."""
    sampler = ZipfSampler(vocabulary, config.zipf_s, seed=config.seed + 1)
    return [f"w{rank}" for rank in sampler.sample_many(config.probes)]


def _replay(
    sim: ClusterSimulation,
    config: ServingBenchConfig,
    values: list[str],
    batch_size: int,
) -> dict[str, Any]:
    """Serve the probe+scan stream at ``batch_size``; return measurements."""
    replica = sim.shards[0].primary
    wave, disk = replica.wave, replica.device
    day = sim.result.days[-1].day
    lo, hi = day - config.window + 1, day
    obs = MetricsRegistry()
    tracer = Tracer(lambda: disk.clock)
    latency = obs.histogram("probe.latency_seconds")
    clock0 = disk.clock
    io0 = disk.stats.snapshot()
    cache0 = disk.page_cache.snapshot() if disk.page_cache else None

    with tracer.span("probes", batch_size=batch_size):
        for start in range(0, len(values), batch_size):
            chunk = values[start : start + batch_size]
            batch = wave.probe_many([(v, lo, hi) for v in chunk])
            for result in batch:
                latency.observe(result.seconds)
                obs.counter("probe.entries").inc(len(result.entries))
            obs.counter("batch.duplicate_hits").inc(batch.summary.duplicate_hits)
            obs.counter("batch.buckets_read").inc(batch.summary.buckets_read)
    probe_seconds = disk.clock - clock0

    with tracer.span("scans", batch_size=batch_size):
        for start in range(0, config.scans, batch_size):
            count = min(batch_size, config.scans - start)
            wave.scan_many([(hi, hi)] * count)
    scan_seconds = disk.clock - clock0 - probe_seconds

    io = disk.stats.snapshot() - io0
    cache = disk.page_cache.snapshot() - cache0 if cache0 is not None else None
    seconds = disk.clock - clock0
    return {
        "batch_size": batch_size,
        "cache": disk.page_cache is not None,
        "seconds": seconds,
        "probe_seconds": probe_seconds,
        "scan_seconds": scan_seconds,
        "seconds_per_probe": probe_seconds / len(values),
        "probes_per_simulated_second": (
            len(values) / probe_seconds if probe_seconds > 0 else None
        ),
        "seeks": io.seeks,
        "bytes_read": io.bytes_read,
        "cache_hits": cache.hits if cache else 0,
        "cache_misses": cache.misses if cache else 0,
        "cache_evictions": cache.evictions if cache else 0,
        "cache_hit_rate": cache.hit_rate if cache else None,
        "duplicate_hits": obs.counter("batch.duplicate_hits").value,
        "buckets_read": obs.counter("batch.buckets_read").value,
        "entries_returned": obs.counter("probe.entries").value,
        "latency": latency.summary(),
        "phases": tracer.phase_seconds(),
    }


def run_serving_bench(config: ServingBenchConfig | None = None) -> dict[str, Any]:
    """Run the full cache x batch grid; return the JSON-ready report.

    Every grid cell rebuilds the window from the same seeds, so all cells
    serve the identical index layout and the identical query stream —
    simulated seconds differ only through batching and the page cache.
    """
    config = config or ServingBenchConfig()
    # Size the cache from an uncached build's index footprint.
    probe_sim = _build_window(config, None)
    index_bytes = probe_sim.shards[0].primary.wave.constituent_bytes
    cache_bytes = max(
        config.page_size, int(index_bytes * config.cache_ratio)
    )
    vocabulary = heaps_vocabulary(config.docs_per_day * config.words_per_doc)
    values = _zipf_values(config, vocabulary)

    configs: list[dict[str, Any]] = []
    day_cache_counters: dict[str, int] = {}
    for cached in (False, True):
        for batch_size in config.batch_sizes:
            sim = _build_window(config, cache_bytes if cached else None)
            cell = _replay(sim, config, values, batch_size)
            configs.append(cell)
            if cached and not day_cache_counters:
                # The maintenance run itself reports per-day cache deltas
                # through DayMetrics — surface the run totals once.
                shard = sim.result.shard_results[0]
                day_cache_counters = {
                    "maintenance_cache_hits": shard.total_cache_hits(),
                    "maintenance_cache_misses": shard.total_cache_misses(),
                }

    def cell(batch_size: int, cached: bool) -> dict[str, Any]:
        for c in configs:
            if c["batch_size"] == batch_size and c["cache"] is cached:
                return c
        raise KeyError((batch_size, cached))

    base = cell(config.batch_sizes[0], False)
    speedups = {}
    for batch_size in config.batch_sizes:
        fast = cell(batch_size, True)
        speedups[f"batch{batch_size}_cached_vs_unbatched_uncached"] = (
            base["seconds"] / fast["seconds"] if fast["seconds"] > 0 else None
        )
    report = {
        "bench": "serving",
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "scheme": config.scheme,
            "window": config.window,
            "n_indexes": config.n_indexes,
            "docs_per_day": config.docs_per_day,
            "words_per_doc": config.words_per_doc,
            "vocabulary": vocabulary,
            "probes": config.probes,
            "scans": config.scans,
            "zipf_s": config.zipf_s,
            "extra_days": config.extra_days,
            "seed": config.seed,
            "quick": config.quick,
        },
        "cache": {
            "page_size": config.page_size,
            "capacity_bytes": cache_bytes,
            "cache_ratio": config.cache_ratio,
            "index_bytes": index_bytes,
            **day_cache_counters,
        },
        "configs": configs,
        "speedups": speedups,
    }
    return BENCH.validate(report)


def _check(report: dict[str, Any]) -> None:
    for cell in report["configs"]:
        if cell["seconds"] < 0:
            raise ValueError(f"negative seconds in cell {cell}")
    if not report["speedups"]:
        raise ValueError("serving report has no speedups")


def render_summary(report: dict[str, Any]) -> str:
    """Return a human-readable table of the grid for the CLI."""
    lines = [
        "Serving replay: {probes} Zipf probes + {scans} scans on a "
        "W={window} {scheme} window (n={n_indexes})".format(
            **report["workload"]
        ),
        "page cache: {capacity_bytes:,} bytes over {index_bytes:,} "
        "index bytes (pages of {page_size})".format(**report["cache"]),
        "",
        f"{'batch':>6} {'cache':>6} {'seconds':>12} {'s/probe':>12} "
        f"{'seeks':>10} {'hit rate':>9}",
    ]
    for cell in report["configs"]:
        hit_rate = cell["cache_hit_rate"]
        lines.append(
            f"{cell['batch_size']:>6} "
            f"{'on' if cell['cache'] else 'off':>6} "
            f"{cell['seconds']:>12.4f} "
            f"{cell['seconds_per_probe']:>12.6f} "
            f"{cell['seeks']:>10.1f} "
            + (f"{hit_rate:>8.1%}" if hit_rate is not None else f"{'-':>8}")
        )
    lines.append("")
    for name, value in report["speedups"].items():
        rendered = f"{value:.2f}x" if value is not None else "n/a"
        lines.append(f"  {name}: {rendered}")
    return "\n".join(lines)


BENCH = Bench(
    name="serving",
    config=ServingBenchConfig,
    quick_config=quick_config,
    run=run_serving_bench,
    render_summary=render_summary,
    schema=Schema(
        keys=("workload", "cache", "configs", "speedups"),
        rows="configs",
        row_keys=(
            "batch_size",
            "cache",
            "seconds",
            "probe_seconds",
            "scan_seconds",
            "seconds_per_probe",
            "probes_per_simulated_second",
            "seeks",
            "bytes_read",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "latency",
        ),
    ),
    check=_check,
)

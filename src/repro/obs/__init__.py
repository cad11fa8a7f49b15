"""Observability for the simulated serving system.

Two small, dependency-free pieces:

* :mod:`repro.obs.registry` — named counters and exact-quantile histograms
  with JSON-friendly snapshots (:class:`MetricsRegistry`);
* :mod:`repro.obs.tracing` — nested span tracing on the *simulated* clock
  (:class:`Tracer`), so traces attribute simulated seconds to phases.

The cluster's day loop (:class:`~repro.cluster.ClusterSimulation`, whose
``sim.obs`` registry counts days, queries, heals, reshards and retunes and
holds the run's latency histograms) and the serving benchmark
(:mod:`repro.bench.serving`, which traces its replay phases) both publish
through these.
"""

from .registry import (
    Counter,
    CounterWindow,
    Histogram,
    MetricsRegistry,
    SlidingWindow,
)
from .tracing import Span, Tracer

__all__ = [
    "Counter",
    "CounterWindow",
    "Histogram",
    "MetricsRegistry",
    "SlidingWindow",
    "Span",
    "Tracer",
]

"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``schemes`` — list the maintenance schemes and their properties.
* ``trace`` — print a scheme's transition table (the paper's Tables 1–7
  for any ``W``, ``n``, and horizon).
* ``figure`` — regenerate one of the paper's figures as a text table.
* ``advise`` — rank configurations for a scenario (Section 6's process).
* ``calibrate`` — measure Build/Add/S' on the simulated substrate.
* ``latency`` — simulate a day of query latency under maintenance.
* ``sensitivity`` — work elasticity per Table-12 cost parameter.
* ``crash-test`` — inject crashes at transition op boundaries and verify
  recovery against a fault-free twin run.
* ``bench-serving`` — replay a Zipf query workload against a SCAM-sized
  window (cache on/off x batch sizes), writing ``BENCH_serving.json``.
* ``bench-overlap`` — serialized vs overlapped maintenance/serving on a
  disk array across the schemes, writing ``BENCH_overlap.json``.
* ``bench-cluster`` — sharded-cluster scaling and staggered vs lockstep
  maintenance, writing ``BENCH_cluster.json``.
* ``chaos-soak`` — randomized fault schedules against the self-healing
  cluster, invariants checked against a fault-free twin, writing
  ``BENCH_chaos.json``.
* ``bench-advisor`` — race the online tuning advisor against every
  static design over a drifting workload, writing ``BENCH_advisor.json``.
* ``bench-resilience`` — tail-tolerance scenarios over a multi-frontend
  fleet (hedging, retry budgets, DRR fairness, zero-loss rolling
  restarts) plus a seeded frontend-chaos matrix, writing
  ``BENCH_resilience.json``.
* ``bench-check`` — gate fresh bench artifacts against the committed
  ``BENCH_baseline.json`` headline metrics.

Seeded commands share one default (:data:`DEFAULT_SEED`): pass ``--seed``
globally (``repro --seed 3 crash-test``) or per command; per-command wins.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis.parameters import TABLE12
from .core.schemes import ALL_SCHEMES, scheme_by_name
from .errors import SchemeError
from .core.trace import format_trace, trace_scheme
from .index.updates import UpdateTechnique

_TECHNIQUES = tuple(UpdateTechnique)

#: The one RNG seed every seeded command defaults to.  Matches the
#: serving benchmark's committed artifact so ``repro bench-serving`` with
#: no flags reproduces ``BENCH_serving.json`` exactly.
DEFAULT_SEED = 7


def _resolve_seed(args: argparse.Namespace) -> int:
    """Return the effective seed: per-command, then global, then default."""
    per_command = getattr(args, "seed", None)
    if per_command is not None:
        return per_command
    if args.seed_global is not None:
        return args.seed_global
    return DEFAULT_SEED


def build_parser() -> argparse.ArgumentParser:
    """Return the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wave-Indices (SIGMOD 1997) reproduction toolkit",
    )
    # Distinct dest: a subcommand's own --seed (dest="seed") would
    # otherwise overwrite this value with its default during parsing.
    parser.add_argument(
        "--seed", type=int, default=None, dest="seed_global",
        help=f"seed for every seeded subcommand (default {DEFAULT_SEED})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("schemes", help="list maintenance schemes")

    trace = sub.add_parser("trace", help="print a scheme's transition table")
    trace.add_argument("scheme", help="scheme name, e.g. DEL or REINDEX+")
    trace.add_argument("--window", "-w", type=int, default=10)
    trace.add_argument("--indexes", "-n", type=int, default=2)
    trace.add_argument(
        "--days", "-d", type=int, default=None,
        help="last day to trace (default: window + 6)",
    )

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument(
        "name",
        choices=sorted(_FIGURES),
        help="figure to compute",
    )

    advise = sub.add_parser("advise", help="rank configurations for a scenario")
    advise.add_argument(
        "--scenario",
        choices=sorted(TABLE12),
        default="SCAM",
        help="Table 12 scenario parameters to use",
    )
    advise.add_argument("--candidates", type=int, nargs="+", default=[1, 2, 4, 7, 10])
    advise.add_argument("--hard-window", action="store_true")
    advise.add_argument("--no-packed-shadow", action="store_true")
    advise.add_argument("--top", type=int, default=5)

    calibrate = sub.add_parser(
        "calibrate", help="measure Build/Add/S' on the simulated substrate"
    )
    calibrate.add_argument("--scale-factor", type=float, default=1.0)
    calibrate.add_argument("--cluster-days", type=int, default=1)
    calibrate.add_argument(
        "--memory-mb", type=float, default=None,
        help="buffer-pool size; omit for the memoryless model",
    )

    latency = sub.add_parser(
        "latency",
        help="simulate a day of query latency under maintenance",
    )
    latency.add_argument("scheme", help="scheme name, e.g. DEL")
    latency.add_argument(
        "--scenario", choices=sorted(TABLE12), default="SCAM"
    )
    latency.add_argument("--indexes", "-n", type=int, default=2)
    latency.add_argument(
        "--technique",
        choices=[t.value for t in _TECHNIQUES],
        default="in_place",
    )
    latency.add_argument("--queries", type=int, default=5_000)
    latency.add_argument("--seed", type=int, default=None)

    sensitivity = sub.add_parser(
        "sensitivity",
        help="elasticity of total work per cost parameter",
    )
    sensitivity.add_argument("scheme", help="scheme name, e.g. REINDEX")
    sensitivity.add_argument(
        "--scenario", choices=sorted(TABLE12), default="SCAM"
    )
    sensitivity.add_argument("--indexes", "-n", type=int, default=4)
    sensitivity.add_argument(
        "--technique",
        choices=[t.value for t in _TECHNIQUES],
        default="simple_shadow",
    )

    crash = sub.add_parser(
        "crash-test",
        help="crash transitions at every op boundary and verify recovery",
    )
    crash.add_argument(
        "schemes", nargs="*",
        help="scheme names to test (default: all six)",
    )
    crash.add_argument("--window", "-w", type=int, default=6)
    crash.add_argument("--indexes", "-n", type=int, default=3)
    crash.add_argument("--cycles", type=int, default=3)
    crash.add_argument("--seed", type=int, default=None)
    crash.add_argument(
        "--technique",
        choices=[t.value for t in _TECHNIQUES],
        default="simple_shadow",
    )
    crash.add_argument(
        "--io-samples", type=int, default=0,
        help="extra mid-op (after Nth I/O) crash points per transition",
    )
    crash.add_argument(
        "--verbose", "-v", action="store_true",
        help="print every crash cell, not just failures",
    )
    crash.add_argument(
        "--no-rebalance", action="store_true",
        help="omit the replica-move (copy/rebalance) crash cells",
    )

    serving = sub.add_parser(
        "bench-serving",
        help="replay a Zipf query workload (cache x batch grid) and emit "
        "BENCH_serving.json",
    )
    serving.add_argument(
        "--quick", action="store_true",
        help="CI-sized replay (same grid, smaller stream)",
    )
    serving.add_argument(
        "--out", default="BENCH_serving.json",
        help="output JSON path (default: ./BENCH_serving.json)",
    )
    serving.add_argument("--probes", type=int, default=None)
    serving.add_argument("--scans", type=int, default=None)
    serving.add_argument(
        "--batch-sizes", type=int, nargs="+", default=None,
        help="batch sizes to grid over (default: 1 16 256)",
    )
    serving.add_argument(
        "--cache-ratio", type=float, default=None,
        help="page-cache capacity as a fraction of the index (default 0.5)",
    )
    serving.add_argument("--window", "-w", type=int, default=None)
    serving.add_argument("--indexes", "-n", type=int, default=None)
    serving.add_argument("--seed", type=int, default=None)

    overlap = sub.add_parser(
        "bench-overlap",
        help="serialized vs overlapped maintenance/serving on a disk "
        "array and emit BENCH_overlap.json",
    )
    overlap.add_argument(
        "--quick", action="store_true",
        help="CI-sized run (same modes, smaller window and stream)",
    )
    overlap.add_argument(
        "--out", default="BENCH_overlap.json",
        help="output JSON path (default: ./BENCH_overlap.json)",
    )
    overlap.add_argument(
        "--devices", "-k", type=int, default=None,
        help="devices in the overlapped-mode array (default 3)",
    )
    overlap.add_argument("--window", "-w", type=int, default=None)
    overlap.add_argument("--indexes", "-n", type=int, default=None)
    overlap.add_argument("--transitions", type=int, default=None)
    overlap.add_argument("--probes", type=int, default=None)
    overlap.add_argument("--scans", type=int, default=None)
    overlap.add_argument(
        "--arrival-stretch", type=float, default=None,
        help="query arrivals spread over this multiple of the "
        "maintenance makespan (default 2.0)",
    )
    overlap.add_argument(
        "--schemes", nargs="+", default=None,
        help="scheme names to compare (default: all seven)",
    )
    overlap.add_argument("--seed", type=int, default=None)

    cluster = sub.add_parser(
        "bench-cluster",
        help="sharded-cluster scaling and staggered vs lockstep "
        "maintenance, emitting BENCH_cluster.json",
    )
    cluster.add_argument(
        "--quick", action="store_true",
        help="CI-sized run (same shape, smaller window and stream)",
    )
    cluster.add_argument(
        "--out", default="BENCH_cluster.json",
        help="output JSON path (default: ./BENCH_cluster.json)",
    )
    cluster.add_argument(
        "--shards", "-k", type=int, nargs="+", default=None,
        help="shard counts to sweep; must include 1 and a k >= 2 "
        "(default: 1 2 4)",
    )
    cluster.add_argument(
        "--replication", "-r", type=int, default=None,
        help="replicas per shard (default 1)",
    )
    cluster.add_argument(
        "--scheme", default=None,
        help="maintenance scheme every shard runs (default REINDEX)",
    )
    cluster.add_argument(
        "--partitioner", choices=("hash", "range"), default=None,
        help="key-space partitioner (default hash)",
    )
    cluster.add_argument(
        "--max-concurrent-frac", type=float, default=None,
        help="staggering bound: fraction of shards in transition at "
        "once (default 0.25)",
    )
    cluster.add_argument("--window", "-w", type=int, default=None)
    cluster.add_argument("--indexes", "-n", type=int, default=None)
    cluster.add_argument("--transitions", type=int, default=None)
    cluster.add_argument("--probes", type=int, default=None)
    cluster.add_argument("--scans", type=int, default=None)
    cluster.add_argument(
        "--arrival-stretch", type=float, default=None,
        help="query arrivals spread over this multiple of the "
        "maintenance makespan (default 2.0)",
    )
    cluster.add_argument("--seed", type=int, default=None)

    chaos = sub.add_parser(
        "chaos-soak",
        help="soak the self-healing cluster under randomized fault "
        "schedules, emitting BENCH_chaos.json",
    )
    chaos.add_argument(
        "--quick", action="store_true",
        help="CI-sized run (same fault mix, one seed, shorter soak)",
    )
    chaos.add_argument(
        "--out", default="BENCH_chaos.json",
        help="output JSON path (default: ./BENCH_chaos.json)",
    )
    chaos.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="fault-schedule seeds to soak (default: 7 8 9)",
    )
    chaos.add_argument(
        "--shards", "-k", type=int, default=None,
        help="number of shards (default 4)",
    )
    chaos.add_argument(
        "--replication", "-r", type=int, default=None,
        help="replicas per shard; >= 2 when kills are scheduled "
        "(default 2)",
    )
    chaos.add_argument(
        "--scheme", default=None,
        help="maintenance scheme every shard runs (default REINDEX)",
    )
    chaos.add_argument(
        "--kills-per-shard", type=int, default=None,
        help="permanent device losses per shard (default 1)",
    )
    chaos.add_argument(
        "--kill-points", nargs="+", default=None,
        choices=("transition", "serving", "rebuild"),
        help="injection points kills are drawn from (default: all three)",
    )
    chaos.add_argument(
        "--burst-days", type=int, default=None,
        help="days that get a transient read-error burst (default 2)",
    )
    chaos.add_argument(
        "--transient-rate", type=float, default=None,
        help="read-error probability during a burst (default 0.9)",
    )
    chaos.add_argument("--window", "-w", type=int, default=None)
    chaos.add_argument("--indexes", "-n", type=int, default=None)
    chaos.add_argument("--transitions", type=int, default=None)
    chaos.add_argument(
        "--strict", action="store_true",
        help="exit nonzero when any invariant fails (the CI soak mode)",
    )

    elastic = sub.add_parser(
        "bench-elastic",
        help="spike one partition range 4x, let the autoscaler split the "
        "hot shard online, and emit BENCH_elastic.json",
    )
    elastic.add_argument(
        "--quick", action="store_true",
        help="CI-sized run (same spike and store, shorter tail)",
    )
    elastic.add_argument(
        "--out", default="BENCH_elastic.json",
        help="output JSON path (default: ./BENCH_elastic.json)",
    )
    elastic.add_argument("--window", "-w", type=int, default=None)
    elastic.add_argument("--indexes", "-n", type=int, default=None)
    elastic.add_argument("--transitions", type=int, default=None)
    elastic.add_argument(
        "--scheme", default=None,
        help="maintenance scheme every shard runs (default REINDEX)",
    )
    elastic.add_argument(
        "--spike-factor", type=float, default=None,
        help="hot-range load multiplier from the spike day on (default 4)",
    )
    elastic.add_argument(
        "--probes", type=int, default=None,
        help="base probes per day before the spike (default 60)",
    )
    elastic.add_argument("--seed", type=int, default=None)
    elastic.add_argument(
        "--strict", action="store_true",
        help="exit nonzero unless the recovery claim holds (CI mode)",
    )

    badv = sub.add_parser(
        "bench-advisor",
        help="race the online tuning advisor against every static design "
        "over a drifting workload and emit BENCH_advisor.json",
    )
    badv.add_argument(
        "--quick", action="store_true",
        help="CI-sized run (identical races; marks the artifact quick)",
    )
    badv.add_argument(
        "--out", default="BENCH_advisor.json",
        help="output JSON path (default: ./BENCH_advisor.json)",
    )
    badv.add_argument("--window", "-w", type=int, default=None)
    badv.add_argument(
        "--phase-days", type=int, default=None,
        help="days per drift phase (default 14)",
    )
    badv.add_argument(
        "--volume-ramp", type=float, default=None,
        help="fractional request growth per day (default 0.02)",
    )
    badv.add_argument("--seed", type=int, default=None)
    badv.add_argument(
        "--strict", action="store_true",
        help="exit nonzero unless the advisor claim holds (CI mode)",
    )

    topo = sub.add_parser(
        "topology-chaos",
        help="fault every step of the split/merge pipelines and verify "
        "abort/roll-forward against a static fault-free twin",
    )
    topo.add_argument(
        "--quick", action="store_true",
        help="PR-sized matrix: crash faults only, one seed",
    )
    topo.add_argument(
        "--out", default="BENCH_topology_chaos.json",
        help="output JSON path (default: ./BENCH_topology_chaos.json)",
    )
    topo.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="store/workload seeds to run the matrix under (default: 1)",
    )
    topo.add_argument(
        "--kinds", nargs="+", default=None, choices=("split", "merge"),
        help="reshard pipelines to walk (default: both)",
    )
    topo.add_argument(
        "--faults", nargs="+", default=None,
        choices=("crash", "kill", "space"),
        help="fault kinds armed per step (default: all three)",
    )
    topo.add_argument(
        "--scheme", default=None,
        help="maintenance scheme every shard runs (default REINDEX)",
    )
    topo.add_argument(
        "--strict", action="store_true",
        help="exit nonzero when any invariant fails (the CI mode)",
    )

    serve = sub.add_parser(
        "serve",
        help="boot the asyncio query frontend over a demo cluster and "
        "serve probe/scan over TCP until interrupted",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default: 0 = pick a free one and print it)",
    )
    serve.add_argument(
        "--policy", choices=("shed", "queue"), default="shed",
        help="overload policy for a full queue (default: shed)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=None,
        help="bounded request queue depth (default 256)",
    )
    serve.add_argument(
        "--concurrency", type=int, default=None,
        help="max batches dispatched to the backend at once (default 4)",
    )
    serve.add_argument(
        "--tenant-rate", type=float, default=None,
        help="per-tenant token-bucket rate in requests/s "
        "(default: no per-tenant limit)",
    )
    serve.add_argument("--window", "-w", type=int, default=None)
    serve.add_argument("--shards", type=int, default=None)
    serve.add_argument(
        "--scheme", default=None,
        help="maintenance scheme the demo cluster runs (default REINDEX)",
    )
    serve.add_argument("--seed", type=int, default=None)

    loadgen = sub.add_parser(
        "loadgen",
        help="replay an open-loop request schedule (poisson or usenet "
        "diurnal arrivals) against a frontend and report the outcome",
    )
    loadgen.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="frontend to drive (default: boot one in-process)",
    )
    loadgen.add_argument(
        "--duration", type=float, default=None,
        help="burst duration in seconds (default 2.0)",
    )
    loadgen.add_argument(
        "--qps", type=float, default=None,
        help="mean offered load in requests/s (default 400)",
    )
    loadgen.add_argument(
        "--arrivals", choices=("poisson", "diurnal"), default=None,
        help="arrival process (default poisson)",
    )
    loadgen.add_argument(
        "--users", type=int, default=None,
        help="simulated user population (default 1,000,000)",
    )
    loadgen.add_argument(
        "--tenants", type=int, default=None,
        help="tenants the population is split across (default 8)",
    )
    loadgen.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline (default: none)",
    )
    loadgen.add_argument(
        "--policy", choices=("shed", "queue"), default="shed",
        help="overload policy of the in-process frontend",
    )
    loadgen.add_argument(
        "--tenant-rate", type=float, default=None,
        help="per-tenant token-bucket rate of the in-process frontend",
    )
    loadgen.add_argument("--seed", type=int, default=None)
    loadgen.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON instead of a summary",
    )

    frontend = sub.add_parser(
        "bench-frontend",
        help="sweep offered load past the saturation knee under the "
        "shed and queue overload policies; emit BENCH_frontend.json "
        "(wall-clock: never byte-compared)",
    )
    frontend.add_argument(
        "--quick", action="store_true",
        help="CI-sized sweep (fewer, shorter steps)",
    )
    frontend.add_argument(
        "--out", default="BENCH_frontend.json",
        help="output JSON path (default: ./BENCH_frontend.json)",
    )
    frontend.add_argument(
        "--multipliers", type=float, nargs="+", default=None,
        help="offered-load multipliers of calibrated capacity "
        "(must straddle 1.0)",
    )
    frontend.add_argument(
        "--step-duration", type=float, default=None,
        help="seconds per sweep step",
    )
    frontend.add_argument(
        "--service-us", type=float, default=None,
        help="stand-in backend service time per request in "
        "microseconds (default 2500)",
    )
    frontend.add_argument(
        "--users", type=int, default=None,
        help="simulated user population (default 1,000,000)",
    )
    frontend.add_argument(
        "--queue-policy", choices=("fifo", "drr"), default="fifo",
        help="request-queue discipline (default fifo, the PR 8 "
        "baseline; drr re-asserts the claims over the fair queue)",
    )
    frontend.add_argument(
        "--adaptive", action="store_true",
        help="enable AIMD adaptive concurrency on the dispatcher pool",
    )
    frontend.add_argument("--seed", type=int, default=None)
    frontend.add_argument(
        "--strict", action="store_true",
        help="exit nonzero unless the graceful-degradation claims "
        "hold (the CI mode)",
    )

    resilience = sub.add_parser(
        "bench-resilience",
        help="tail-tolerance scenarios over a multi-frontend fleet "
        "(hedging, retry budget, DRR fairness, zero-loss rolling "
        "restart) plus a seeded frontend-chaos matrix; emit "
        "BENCH_resilience.json (wall-clock: never byte-compared)",
    )
    resilience.add_argument(
        "--quick", action="store_true",
        help="CI-sized run (same scenarios, shorter bursts)",
    )
    resilience.add_argument(
        "--out", default="BENCH_resilience.json",
        help="output JSON path (default: ./BENCH_resilience.json)",
    )
    resilience.add_argument(
        "--frontends", type=int, default=None,
        help="fleet size for the hedging/restart scenarios (default 3)",
    )
    resilience.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="chaos-matrix seeds (default: one seed; nightly CI sweeps "
        "several)",
    )
    resilience.add_argument("--seed", type=int, default=None)
    resilience.add_argument(
        "--strict", action="store_true",
        help="exit nonzero unless every resilience claim and every "
        "chaos cell holds (the CI mode)",
    )

    check = sub.add_parser(
        "bench-check",
        help="gate fresh bench artifacts against BENCH_baseline.json",
    )
    check.add_argument(
        "reports", nargs="+",
        help="bench JSON artifacts to check (e.g. BENCH_overlap.json)",
    )
    check.add_argument(
        "--baseline", default="BENCH_baseline.json",
        help="committed baseline path (default: ./BENCH_baseline.json)",
    )
    check.add_argument(
        "--threshold", type=float, default=None,
        help="relative regression that fails the gate (default 0.25)",
    )
    check.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from the given reports instead of "
        "gating against it",
    )
    return parser


def _cmd_schemes() -> int:
    print(f"{'name':<14}{'window':<8}{'min n':<7}{'temporaries':<12}period")
    for scheme_cls in ALL_SCHEMES:
        window = "hard" if scheme_cls.hard_window else "soft"
        temps = "yes" if scheme_cls.uses_temporaries else "no"
        period = "W" if scheme_cls.period_offset == 0 else "W-1"
        print(f"{scheme_cls.name:<14}{window:<8}{scheme_cls.min_indexes:<7}"
              f"{temps:<12}{period}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        scheme_cls = scheme_by_name(args.scheme)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    last_day = args.days if args.days is not None else args.window + 6
    try:
        scheme = scheme_cls(args.window, args.indexes)
    except TypeError:
        print(
            f"{scheme_cls.name} needs extra configuration (e.g. day sizes) "
            "and cannot be traced from the CLI; use the Python API.",
            file=sys.stderr,
        )
        return 2
    rows = trace_scheme(scheme, last_day)
    title = f"{scheme_cls.name} (W={args.window}, n={args.indexes})"
    print(format_trace(rows, title=title))
    return 0


def _figure_fig3():
    from .bench.tables import render_curves
    from .casestudies import scam

    return render_curves(
        "Figure 3: SCAM average space vs n (W=7)",
        "n", scam.DEFAULT_N_VALUES, scam.figure3_space(),
        unit="MB", scale=1_000_000,
    )


def _figure_fig4():
    from .bench.tables import render_curves
    from .casestudies import scam

    return render_curves(
        "Figure 4: SCAM transition time vs n (W=7)",
        "n", scam.DEFAULT_N_VALUES, scam.figure4_transition(), unit="s",
    )


def _figure_fig5():
    from .bench.tables import render_curves
    from .casestudies import scam

    return render_curves(
        "Figure 5: SCAM total work vs n (W=7)",
        "n", scam.DEFAULT_N_VALUES, scam.figure5_work(), unit="s",
    )


def _figure_fig6():
    from .bench.tables import render_curves
    from .casestudies import wse

    return render_curves(
        "Figure 6: WSE total work vs n (W=35, packed shadowing)",
        "n", wse.DEFAULT_N_VALUES, wse.figure6_work(), unit="s",
    )


def _figure_fig7():
    from .bench.tables import render_curves
    from .casestudies import tpcd

    return render_curves(
        "Figure 7: TPC-D total work vs n (packed shadowing)",
        "n", tpcd.DEFAULT_N_VALUES, tpcd.figure7_packed(), unit="s",
    )


def _figure_fig8():
    from .bench.tables import render_curves
    from .casestudies import tpcd

    return render_curves(
        "Figure 8: TPC-D total work vs n (simple shadowing)",
        "n", tpcd.DEFAULT_N_VALUES, tpcd.figure8_simple(), unit="s",
    )


def _figure_fig11():
    from .casestudies.sizing import figure11_ratios
    from .workloads.usenet import day_weights, june_december_1997_volume

    weights = day_weights(june_december_1997_volume())
    ratios = figure11_ratios(weights, window=7)
    lines = ["Figure 11: WATA* index-size ratio vs n (W=7, 200-day trace)"]
    for n, ratio in sorted(ratios.items()):
        lines.append(f"  n={n}: {ratio:.3f}")
    return "\n".join(lines)


_FIGURES = {
    "fig3": _figure_fig3,
    "fig4": _figure_fig4,
    "fig5": _figure_fig5,
    "fig6": _figure_fig6,
    "fig7": _figure_fig7,
    "fig8": _figure_fig8,
    "fig11": _figure_fig11,
}


def _cmd_figure(args: argparse.Namespace) -> int:
    print(_FIGURES[args.name]())
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .core.advisor import recommend

    params = TABLE12[args.scenario]
    recs = recommend(
        params,
        candidate_n=tuple(args.candidates),
        packed_shadow_available=not args.no_packed_shadow,
        hard_window_required=args.hard_window,
        max_candidates=args.top,
    )
    print(f"Scenario {args.scenario} (W={params.window}):")
    for rank, rec in enumerate(recs, start=1):
        kind = "hard" if rec.hard_window else "soft"
        print(
            f"  {rank}. {rec.scheme:<10} n={rec.n_indexes:<3} "
            f"{rec.technique:<14} {kind} window  "
            f"work {rec.total_work_s:10,.0f} s/day"
        )
        for note in rec.notes:
            print(f"       - {note}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .casestudies.scam import measure_build_add_constants

    memory = args.memory_mb * 1_000_000 if args.memory_mb else None
    build, add, s_prime = measure_build_add_constants(
        args.scale_factor,
        cluster_days=args.cluster_days,
        memory_bytes=memory,
    )
    print(f"Substrate constants at SF={args.scale_factor} "
          f"(cluster of {args.cluster_days} day(s)"
          + (f", {args.memory_mb} MB pool" if args.memory_mb else "") + "):")
    print(f"  Build = {build:10.4f} s/day")
    print(f"  Add   = {add:10.4f} s/day   (Add/Build = {add / build:.2f})")
    print(f"  S'    = {s_prime:10,.0f} bytes/day")
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    from .analysis.daycount import run_reports
    from .sim.latency import simulate_query_latency

    try:
        scheme_cls = scheme_by_name(args.scheme)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    params = TABLE12[args.scenario]
    technique = UpdateTechnique(args.technique)
    scheme = scheme_cls(params.window, args.indexes)
    reports = run_reports(scheme, params, technique, transitions=params.window)
    stats = simulate_query_latency(
        reports[-1],
        params,
        technique,
        queries_per_day=args.queries,
        seed=_resolve_seed(args),
    )
    print(
        f"{scheme_cls.name} n={args.indexes} ({technique.value}) on "
        f"{args.scenario}: {stats.queries} queries"
    )
    print(f"  p50 {stats.p50_s * 1e3:10.2f} ms")
    print(f"  p95 {stats.p95_s * 1e3:10.2f} ms")
    print(f"  max {stats.max_s:10.2f} s")
    print(f"  blocked by maintenance: {stats.blocked_fraction:.1%}")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .analysis.sensitivity import dominant_parameters, work_elasticities

    try:
        scheme_cls = scheme_by_name(args.scheme)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    params = TABLE12[args.scenario]
    technique = UpdateTechnique(args.technique)
    elasticities = work_elasticities(
        lambda p: scheme_cls(p.window, args.indexes), params, technique
    )
    print(
        f"Work elasticities for {scheme_cls.name} n={args.indexes} "
        f"({technique.value}) on {args.scenario}:"
    )
    for name, value in sorted(
        elasticities.items(), key=lambda kv: -abs(kv[1])
    ):
        bar = "#" * min(40, round(abs(value) * 40))
        print(f"  {name:>10}: {value:+7.3f}  {bar}")
    top = ", ".join(name for name, _ in dominant_parameters(elasticities))
    print(f"dominant: {top}")
    return 0


def _cmd_crash_test(args: argparse.Namespace) -> int:
    from .sim.crashmatrix import DEFAULT_SCHEMES, run_crash_matrix

    names = tuple(args.schemes) if args.schemes else DEFAULT_SCHEMES
    try:
        for name in names:
            scheme_by_name(name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    try:
        result = run_crash_matrix(
            names,
            window=args.window,
            n_indexes=args.indexes,
            cycles=args.cycles,
            seed=_resolve_seed(args),
            technique=UpdateTechnique(args.technique),
            io_crash_samples=args.io_samples,
            include_rebalance=not args.no_rebalance,
        )
    except (ValueError, SchemeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        for scheme in result.schemes:
            print(f"{scheme.scheme}:")
            for cell in scheme.cells:
                print(f"  {cell.describe()}")
    print(result.summary())
    return 0 if result.ok else 1


def _cmd_bench_serving(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .bench.serving import (
        ServingBenchConfig,
        quick_config,
        render_summary,
        run_serving_bench,
        write_report,
    )

    config = ServingBenchConfig()
    if args.quick:
        config = quick_config(config)
    overrides = {
        "probes": args.probes,
        "scans": args.scans,
        "window": args.window,
        "n_indexes": args.indexes,
        "seed": _resolve_seed(args),
        "cache_ratio": args.cache_ratio,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if args.batch_sizes is not None:
        overrides["batch_sizes"] = tuple(args.batch_sizes)
    try:
        config = replace(config, **overrides)
        report = run_serving_bench(config)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    path = write_report(report, args.out)
    print(render_summary(report))
    print(f"\nwrote {path}")
    return 0


def _cmd_bench_overlap(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .bench.overlap import (
        OverlapBenchConfig,
        quick_config,
        render_summary,
        run_overlap_bench,
        write_report,
    )

    config = OverlapBenchConfig()
    if args.quick:
        config = quick_config(config)
    overrides = {
        "window": args.window,
        "n_indexes": args.indexes,
        "transitions": args.transitions,
        "probes_per_day": args.probes,
        "scans_per_day": args.scans,
        "n_devices": args.devices,
        "arrival_stretch": args.arrival_stretch,
        "seed": _resolve_seed(args),
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if args.schemes is not None:
        overrides["schemes"] = tuple(args.schemes)
    try:
        config = replace(config, **overrides)
        report = run_overlap_bench(config)
    except (KeyError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    path = write_report(report, args.out)
    print(render_summary(report))
    print(f"\nwrote {path}")
    return 0


def _cmd_bench_cluster(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .bench.cluster import (
        ClusterBenchConfig,
        quick_config,
        render_summary,
        run_cluster_bench,
        write_report,
    )
    from .errors import ClusterError

    config = ClusterBenchConfig()
    if args.quick:
        config = quick_config(config)
    overrides = {
        "window": args.window,
        "n_indexes": args.indexes,
        "transitions": args.transitions,
        "scheme": args.scheme,
        "replication": args.replication,
        "partitioner": args.partitioner,
        "max_concurrent_frac": args.max_concurrent_frac,
        "probes_per_day": args.probes,
        "scans_per_day": args.scans,
        "arrival_stretch": args.arrival_stretch,
        "seed": _resolve_seed(args),
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if args.shards is not None:
        overrides["shard_counts"] = tuple(args.shards)
    try:
        config = replace(config, **overrides)
        report = run_cluster_bench(config)
    except (KeyError, ValueError, ClusterError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    path = write_report(report, args.out)
    print(render_summary(report))
    print(f"\nwrote {path}")
    return 0


def _cmd_chaos_soak(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .bench.chaos import (
        ChaosSoakConfig,
        quick_config,
        render_summary,
        run_chaos_soak,
        write_report,
    )
    from .errors import ClusterError

    config = ChaosSoakConfig()
    if args.quick:
        config = quick_config(config)
    overrides = {
        "window": args.window,
        "n_indexes": args.indexes,
        "transitions": args.transitions,
        "scheme": args.scheme,
        "n_shards": args.shards,
        "replication": args.replication,
        "kills_per_shard": args.kills_per_shard,
        "transient_burst_days": args.burst_days,
        "transient_rate": args.transient_rate,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if args.seeds is not None:
        overrides["seeds"] = tuple(args.seeds)
    elif args.seed_global is not None:
        overrides["seeds"] = (args.seed_global,)
    if args.kill_points is not None:
        overrides["kill_points"] = tuple(args.kill_points)
    try:
        config = replace(config, **overrides)
        report = run_chaos_soak(config)
    except (KeyError, ValueError, ClusterError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    path = write_report(report, args.out)
    print(render_summary(report))
    print(f"\nwrote {path}")
    if args.strict and not report["headline"]["all_invariants_pass"]:
        print("chaos soak FAILED: invariant violations", file=sys.stderr)
        return 1
    return 0


def _cmd_bench_elastic(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .bench.elastic import (
        ElasticBenchConfig,
        quick_config,
        render_summary,
        run_elastic_bench,
        write_report,
    )
    from .errors import ClusterError

    config = ElasticBenchConfig()
    if args.quick:
        config = quick_config(config)
    overrides = {
        "window": args.window,
        "n_indexes": args.indexes,
        "transitions": args.transitions,
        "scheme": args.scheme,
        "spike_factor": args.spike_factor,
        "probes_per_day": args.probes,
        "seed": args.seed,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    try:
        config = replace(config, **overrides)
        report = run_elastic_bench(config)
    except (KeyError, ValueError, ClusterError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    path = write_report(report, args.out)
    print(render_summary(report))
    print(f"\nwrote {path}")
    if args.strict and not report["headline"]["claim"]["pass"]:
        print("elastic bench FAILED: recovery claim violated", file=sys.stderr)
        return 1
    return 0


def _cmd_bench_advisor(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .bench.advisor import (
        AdvisorBenchConfig,
        quick_config,
        render_summary,
        run_advisor_bench,
        write_report,
    )
    from .errors import ClusterError

    config = AdvisorBenchConfig()
    if args.quick:
        config = quick_config(config)
    overrides = {
        "window": args.window,
        "phase_days": args.phase_days,
        "volume_ramp": args.volume_ramp,
        "seed": args.seed,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    try:
        config = replace(config, **overrides)
        report = run_advisor_bench(config)
    except (KeyError, ValueError, ClusterError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    path = write_report(report, args.out)
    print(render_summary(report))
    print(f"\nwrote {path}")
    if args.strict and not report["headline"]["claim"]["pass"]:
        print("advisor bench FAILED: claim violated", file=sys.stderr)
        return 1
    return 0


def _cmd_topology_chaos(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .bench.topology_chaos import (
        TopologyChaosConfig,
        quick_config,
        render_summary,
        run_topology_chaos,
        write_report,
    )
    from .errors import ClusterError

    config = TopologyChaosConfig()
    if args.quick:
        config = quick_config(config)
    overrides: dict = {}
    if args.seeds is not None:
        overrides["seeds"] = tuple(args.seeds)
    if args.kinds is not None:
        overrides["kinds"] = tuple(args.kinds)
    if args.faults is not None:
        overrides["faults"] = tuple(args.faults)
    if args.scheme is not None:
        overrides["scheme"] = args.scheme
    try:
        config = replace(config, **overrides)
        report = run_topology_chaos(config)
    except (KeyError, ValueError, ClusterError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    path = write_report(report, args.out)
    print(render_summary(report))
    print(f"\nwrote {path}")
    if args.strict and not report["headline"]["pass"]:
        print(
            "topology chaos FAILED: invariant violations", file=sys.stderr
        )
        return 1
    return 0


def _demo_cluster_config(args: argparse.Namespace):
    from dataclasses import replace

    from .serve.demo import DemoClusterConfig

    overrides = {
        "window": getattr(args, "window", None),
        "n_shards": getattr(args, "shards", None),
        "scheme": getattr(args, "scheme", None),
        "seed": getattr(args, "seed", None),
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return replace(DemoClusterConfig(), **overrides)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .errors import FrontendError
    from .serve.admission import AdmissionConfig
    from .serve.demo import build_demo_cluster
    from .serve.server import FrontendServer

    try:
        cluster = _demo_cluster_config(args)
        admission = AdmissionConfig(
            overload_policy=args.policy,
            **(
                {}
                if args.queue_depth is None
                else {"max_queue_depth": args.queue_depth}
            ),
            **(
                {}
                if args.concurrency is None
                else {"max_concurrency": args.concurrency}
            ),
            tenant_rate=args.tenant_rate,
        )
    except (KeyError, FrontendError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> int:
        print(
            f"building demo cluster (scheme={cluster.scheme} "
            f"W={cluster.window} shards={cluster.n_shards})...",
            flush=True,
        )
        sim = build_demo_cluster(cluster)
        server = FrontendServer(sim.coordinator, admission)
        await server.start(host=args.host, port=args.port)
        print(
            f"serving on {args.host}:{server.port} "
            f"(policy={admission.overload_policy}, "
            f"queue={admission.max_queue_depth}, "
            f"concurrency={admission.max_concurrency}); Ctrl-C to drain",
            flush=True,
        )
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\ndraining...", file=sys.stderr)
        return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .errors import FrontendError, WorkloadError
    from .loadgen import LoadConfig, TenantPopulation, run_load
    from .serve.admission import (
        AdmissionConfig,
        AdmissionController,
        CoordinatorBackend,
    )
    from .serve.client import FrontendClient, InProcessClient
    from .serve.demo import build_demo_cluster

    try:
        cluster = _demo_cluster_config(args)
        population = TenantPopulation(
            **({} if args.users is None else {"n_users": args.users}),
            **({} if args.tenants is None else {"n_tenants": args.tenants}),
        )
        load = LoadConfig(
            **({} if args.duration is None else {"duration_s": args.duration}),
            **({} if args.qps is None else {"offered_qps": args.qps}),
            **({} if args.arrivals is None else {"arrivals": args.arrivals}),
            population=population,
            domain=cluster.domain,
            t_lo=cluster.oldest_day,
            t_hi=cluster.last_day,
            deadline_ms=args.deadline_ms,
            **({} if args.seed is None else {"seed": args.seed}),
        )
    except (KeyError, FrontendError, WorkloadError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    async def _drive() -> int:
        if args.connect is not None:
            host, _, port = args.connect.rpartition(":")
            client = await FrontendClient().connect(host or "127.0.0.1",
                                                    int(port))
            controller = None
        else:
            sim = build_demo_cluster(cluster)
            controller = AdmissionController(
                CoordinatorBackend(sim.coordinator),
                AdmissionConfig(
                    overload_policy=args.policy,
                    tenant_rate=args.tenant_rate,
                ),
            )
            controller.start()
            client = InProcessClient(controller)
        try:
            report = await run_load(client, load)
        finally:
            await client.close()
            if controller is not None:
                await controller.drain()
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            latency = report.latency
            print(
                f"offered {report.offered} requests "
                f"({report.offered_qps:.0f} qps nominal) over "
                f"{report.wall_duration_s:.2f}s wall"
            )
            print(
                f"completed {report.completed} "
                f"({report.admitted_qps:.0f} qps), errors {report.errors}, "
                f"max issue lag {report.max_lag_s * 1e3:.1f} ms"
            )
            if report.rejected:
                rejects = ", ".join(
                    f"{code}={n}"
                    for code, n in sorted(report.rejected.items())
                )
                print(f"rejected: {rejects}")
            if latency.get("count"):
                print(
                    f"latency ms: p50 {latency['p50'] * 1e3:.1f}  "
                    f"p95 {latency['p95'] * 1e3:.1f}  "
                    f"p99 {latency['p99'] * 1e3:.1f}  "
                    f"max {latency['max'] * 1e3:.1f}"
                )
            top = sorted(
                report.per_tenant.items(),
                key=lambda kv: -kv[1]["offered"],
            )[:4]
            for tenant, bins in top:
                print(
                    f"  {tenant}: offered {bins['offered']} "
                    f"completed {bins['completed']} "
                    f"rejected {bins['rejected']}"
                )
        return 0

    try:
        return asyncio.run(_drive())
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach frontend: {exc}", file=sys.stderr)
        return 2


def _cmd_bench_frontend(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .bench.frontend import (
        FrontendBenchConfig,
        quick_config,
        render_summary,
        run_frontend_bench,
        write_report,
    )
    from .errors import FrontendError, WorkloadError

    config = FrontendBenchConfig()
    if args.quick:
        config = quick_config(config)
    overrides: dict = {}
    if args.multipliers is not None:
        overrides["load_multipliers"] = tuple(args.multipliers)
    if args.step_duration is not None:
        overrides["step_duration_s"] = args.step_duration
    if args.service_us is not None:
        overrides["service_us"] = args.service_us
    if args.users is not None:
        overrides["n_users"] = args.users
    if args.queue_policy != "fifo":
        overrides["queue_discipline"] = args.queue_policy
    if args.adaptive:
        overrides["adaptive"] = True
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        config = replace(config, **overrides)
        report = run_frontend_bench(config)
    except (KeyError, ValueError, FrontendError, WorkloadError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    path = write_report(report, args.out)
    print(render_summary(report))
    print(f"\nwrote {path}")
    if args.strict and not report["headline"]["claim"]["pass"]:
        print(
            "frontend bench FAILED: graceful-degradation claims violated",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench_resilience(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .bench.resilience import (
        ResilienceBenchConfig,
        quick_config,
        render_summary,
        run_resilience_bench,
        write_report,
    )
    from .errors import FrontendError, WorkloadError

    config = ResilienceBenchConfig()
    if args.quick:
        config = quick_config(config)
    overrides: dict = {}
    if args.frontends is not None:
        overrides["n_frontends"] = args.frontends
    if args.seeds is not None:
        overrides["chaos_seeds"] = tuple(args.seeds)
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        config = replace(config, **overrides)
        report = run_resilience_bench(config)
    except (KeyError, ValueError, FrontendError, WorkloadError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    path = write_report(report, args.out)
    print(render_summary(report))
    print(f"\nwrote {path}")
    if args.strict and not report["headline"]["claim"]["pass"]:
        print(
            "resilience bench FAILED: tail-tolerance claims violated",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from .bench.regression import (
        DEFAULT_THRESHOLD,
        build_baseline,
        compare,
        load_report,
        render_diff_table,
        write_baseline,
    )

    try:
        reports = [load_report(path) for path in args.reports]
    except (OSError, ValueError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 2
    if args.update:
        previous = None
        try:
            previous = load_report(args.baseline)
        except (OSError, ValueError):
            pass
        baseline = build_baseline(reports, previous)
        path = write_baseline(baseline, args.baseline)
        for name, value in sorted(baseline["metrics"].items()):
            print(f"  {name}: {value:.4f}")
        print(f"wrote {path}")
        return 0
    try:
        baseline = load_report(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline: {exc}", file=sys.stderr)
        return 2
    threshold = (
        args.threshold
        if args.threshold is not None
        else baseline.get("threshold", DEFAULT_THRESHOLD)
    )
    rows = compare(baseline, reports, threshold)
    print(render_diff_table(rows, threshold))
    regressed = any(r.regressed for r in rows)
    return 1 if regressed else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "schemes":
        return _cmd_schemes()
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "advise":
        return _cmd_advise(args)
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    if args.command == "latency":
        return _cmd_latency(args)
    if args.command == "sensitivity":
        return _cmd_sensitivity(args)
    if args.command == "crash-test":
        return _cmd_crash_test(args)
    if args.command == "bench-serving":
        return _cmd_bench_serving(args)
    if args.command == "bench-overlap":
        return _cmd_bench_overlap(args)
    if args.command == "bench-cluster":
        return _cmd_bench_cluster(args)
    if args.command == "chaos-soak":
        return _cmd_chaos_soak(args)
    if args.command == "bench-elastic":
        return _cmd_bench_elastic(args)
    if args.command == "bench-advisor":
        return _cmd_bench_advisor(args)
    if args.command == "topology-chaos":
        return _cmd_topology_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "bench-frontend":
        return _cmd_bench_frontend(args)
    if args.command == "bench-resilience":
        return _cmd_bench_resilience(args)
    if args.command == "bench-check":
        return _cmd_bench_check(args)
    raise AssertionError(f"unhandled command {args.command!r}")

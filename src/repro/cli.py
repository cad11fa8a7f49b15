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

Every bench command (the :data:`_BENCHES` table) runs one
:class:`~repro.bench.harness.Bench`: it writes the report, prints its
summary and exits 0, or 1 when the bench's claim fails (the report is
still written), or 2 on an invalid configuration.

A bench has a flag only for a field that a committed artifact, a paper
figure or a CI leg sets; every other field of its config is set through
``bench(name).execute(**overrides)``.  ``crash-test`` and ``latency``
default their ``--seed`` to :data:`DEFAULT_SEED`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from .analysis.parameters import TABLE12
from .bench.tables import FIGURES
from .core.schemes import ALL_SCHEMES, scheme_by_name
from .errors import ClusterError, FrontendError, SchemeError, WorkloadError
from .core.trace import format_trace, trace_scheme
from .index.updates import UpdateTechnique

_TECHNIQUES = tuple(UpdateTechnique)

#: What a configuration check raises (an impossible ``(W, n)`` among
#: them): exit 2 with ``invalid configuration: ...``, not a traceback.
_INVALID = (
    KeyError, ValueError, ClusterError, FrontendError, SchemeError,
    WorkloadError,
)

#: The RNG seed ``crash-test`` and ``latency`` default to, and the
#: default ``seed`` of every bench config that has one.
DEFAULT_SEED = 7


def _resolve_seed(args: argparse.Namespace) -> int:
    """Return the command's ``--seed``, or :data:`DEFAULT_SEED`."""
    return DEFAULT_SEED if args.seed is None else args.seed


def _invalid(exc: BaseException | str) -> int:
    """Report a refused configuration; return exit code 2."""
    print(f"invalid configuration: {exc}", file=sys.stderr)
    return 2


def _opt(*names: str, **kwargs: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    """Return one ``add_argument`` call's arguments."""
    return names, kwargs


#: The bench subcommands: command -> (bench name, help, the bench's own
#: flags).  Each flag's dest names a field of the bench's config or of
#: one of its groups (``harness.owner``); a flag left unset keeps the
#: config's value.  A bench field that no committed artifact, paper
#: figure or CI leg sets has no flag: set it through
#: ``bench(name).execute(**overrides)``.
_BENCHES = {
    "bench-serving": (
        "serving",
        "replay a Zipf query workload (cache x batch grid) and emit "
        "BENCH_serving.json",
        (),
    ),
    "bench-overlap": (
        "overlap",
        "serialized vs overlapped maintenance/serving on a disk array and "
        "emit BENCH_overlap.json",
        (),
    ),
    "bench-cluster": (
        "cluster",
        "sharded-cluster scaling and staggered vs lockstep maintenance, "
        "emitting BENCH_cluster.json",
        (),
    ),
    "chaos-soak": (
        "chaos",
        "soak the self-healing cluster under randomized fault schedules, "
        "emitting BENCH_chaos.json",
        (
            _opt(
                "--seeds", type=int, nargs="+",
                help="fault-schedule seeds to soak (default: 7 8 9)",
            ),
        ),
    ),
    "bench-elastic": (
        "elastic",
        "spike one partition range 4x, let the autoscaler split the hot "
        "shard online, and emit BENCH_elastic.json",
        (),
    ),
    "bench-advisor": (
        "advisor",
        "race the online tuning advisor against every static design over "
        "a drifting workload and emit BENCH_advisor.json",
        (
            _opt(
                "--phase-days", type=int,
                help="days per drift phase (default 14)",
            ),
            _opt("--seed", type=int),
        ),
    ),
    "topology-chaos": (
        "topology_chaos",
        "fault every step of the split/merge pipelines and verify "
        "abort/roll-forward against a static fault-free twin",
        (
            _opt(
                "--seeds", type=int, nargs="+",
                help="store/workload seeds to run the matrix under "
                "(default: 1)",
            ),
        ),
    ),
    "bench-frontend": (
        "frontend",
        "sweep offered load past the saturation knee under the shed and "
        "queue overload policies; emit BENCH_frontend.json",
        (
            _opt(
                "--queue-policy", choices=("fifo", "drr"),
                dest="queue_discipline",
                help="request-queue discipline (default fifo, the "
                "baseline; drr re-asserts the claims over the fair queue)",
            ),
            _opt(
                "--adaptive", action="store_true", default=None,
                help="enable AIMD adaptive concurrency on the dispatcher pool",
            ),
        ),
    ),
    "bench-resilience": (
        "resilience",
        "tail-tolerance scenarios over a multi-frontend fleet (hedging, "
        "retry budget, DRR fairness, zero-loss rolling restart) plus a "
        "seeded frontend-chaos matrix; emit BENCH_resilience.json",
        (
            _opt(
                "--seeds", type=int, nargs="+", dest="chaos_seeds",
                help="chaos-matrix seeds (default: one seed; nightly CI "
                "sweeps several)",
            ),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """Return the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wave-Indices (SIGMOD 1997) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    schemes = sub.add_parser("schemes", help="list maintenance schemes")
    schemes.set_defaults(func=_cmd_schemes)

    trace = sub.add_parser("trace", help="print a scheme's transition table")
    trace.set_defaults(func=_cmd_trace)
    trace.add_argument("scheme", help="scheme name, e.g. DEL or REINDEX+")
    trace.add_argument("--window", "-w", type=int, default=10)
    trace.add_argument("--indexes", "-n", type=int, default=2)
    trace.add_argument(
        "--days", "-d", type=int, default=None,
        help="last day to trace (default: window + 6)",
    )

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.set_defaults(func=_cmd_figure)
    figure.add_argument(
        "name",
        choices=sorted(FIGURES),
        help="figure to compute",
    )

    advise = sub.add_parser("advise", help="rank configurations for a scenario")
    advise.set_defaults(func=_cmd_advise)
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
    calibrate.set_defaults(func=_cmd_calibrate)
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
    latency.set_defaults(func=_cmd_latency)
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
    sensitivity.set_defaults(func=_cmd_sensitivity)
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
    crash.set_defaults(func=_cmd_crash_test)
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

    for command, (name, help_text, flags) in _BENCHES.items():
        bench = sub.add_parser(command, help=help_text)
        bench.add_argument(
            "--quick", action="store_true",
            help="CI-sized run (the bench's quick_config)",
        )
        bench.add_argument(
            "--out", default=f"BENCH_{name}.json",
            help=f"output JSON path (default: ./BENCH_{name}.json)",
        )
        for names, kwargs in flags:
            bench.add_argument(*names, **kwargs)
        bench.set_defaults(func=_cmd_bench, bench=name)

    serve = sub.add_parser(
        "serve",
        help="boot the asyncio query frontend over a demo cluster and "
        "serve probe/scan over TCP until interrupted",
    )
    serve.set_defaults(func=_cmd_serve)
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
    loadgen.set_defaults(func=_cmd_loadgen)
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

    check = sub.add_parser(
        "bench-check",
        help="gate fresh bench artifacts against BENCH_baseline.json",
    )
    check.set_defaults(func=_cmd_bench_check)
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


def _cmd_schemes(args: argparse.Namespace) -> int:
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
        if last_day < args.window:
            raise ValueError(
                f"--days must be >= the window ({args.window}), got {last_day}"
            )
    except TypeError:
        print(
            f"{scheme_cls.name} needs extra configuration (e.g. day sizes) "
            "and cannot be traced from the CLI; use the Python API.",
            file=sys.stderr,
        )
        return 2
    except _INVALID as exc:
        return _invalid(exc)
    rows = trace_scheme(scheme, last_day)
    title = f"{scheme_cls.name} (W={args.window}, n={args.indexes})"
    print(format_trace(rows, title=title))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .bench.tables import figure

    print(figure(args.name)[0])
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .core.advisor import recommend

    if args.top < 1:
        return _invalid(f"--top must be >= 1, got {args.top}")
    if min(args.candidates) < 1:
        return _invalid(
            f"--candidates must all be >= 1, got {min(args.candidates)}"
        )
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

    if args.cluster_days < 1:
        return _invalid(f"--cluster-days must be >= 1, got {args.cluster_days}")
    if not args.scale_factor > 0:
        return _invalid(f"--scale-factor must be > 0, got {args.scale_factor}")
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
    try:
        scheme = scheme_cls(params.window, args.indexes)
        if args.queries < 0:
            raise ValueError(f"--queries must be >= 0, got {args.queries}")
    except _INVALID as exc:
        return _invalid(exc)
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
    try:
        scheme_cls(params.window, args.indexes)
    except _INVALID as exc:
        return _invalid(exc)
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
        return _invalid(exc)
    if args.verbose:
        for scheme, cells in result.by_scheme().items():
            print(f"{scheme}:")
            for cell in cells:
                print(f"  {cell.describe()}")
    print(result.summary())
    return 0 if result.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the bench ``args.bench`` names; the one runner of every bench."""
    from .bench.harness import bench, owner, write_report

    spec = bench(args.bench)
    defaults = spec.config()
    overrides = {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in vars(args).items()
        if value is not None and owner(defaults, name) is not None
    }
    try:
        report = spec.execute(quick=args.quick, **overrides)
    except _INVALID as exc:
        return _invalid(exc)
    path = write_report(report, args.out)
    print(spec.render_summary(report))
    print(f"\nwrote {path}")
    if spec.claim is not None and not spec.claim(report):
        print(f"{args.command} FAILED: its claim does not hold", file=sys.stderr)
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
    except _INVALID as exc:
        return _invalid(exc)

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
    from .loadgen import TenantPopulation, run_load
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
        load = cluster.load(
            **({} if args.duration is None else {"duration_s": args.duration}),
            **({} if args.qps is None else {"offered_qps": args.qps}),
            **({} if args.arrivals is None else {"arrivals": args.arrivals}),
            population=population,
            deadline_ms=args.deadline_ms,
            **({} if args.seed is None else {"seed": args.seed}),
        )
    except (KeyError, FrontendError, WorkloadError) as exc:
        return _invalid(exc)

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



def _cmd_bench_check(args: argparse.Namespace) -> int:
    from .bench.harness import write_report
    from .bench.regression import (
        DEFAULT_THRESHOLD,
        build_baseline,
        compare,
        load_report,
        render_diff_table,
    )

    if args.threshold is not None and not args.threshold >= 0:
        return _invalid(f"--threshold must be >= 0, got {args.threshold}")
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
        path = write_report(baseline, args.baseline)
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
    return args.func(args)

"""Run the benchmark: ``python perf/run.py [--seed 7] [--workload NAME]
[--quick] [--out FILE]``.

Without ``--workload`` every workload runs twice, each time in a fresh
child process: once untraced for the end-to-end metrics and once traced
for the per-layer ledger.  With ``--workload`` this process is that
child (after re-executing itself under ``PYTHONHASHSEED=0``); its last
line of output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  ``--seconds`` asks for an amount of
work, in whole wave cycles, not for a duration.  Exit status is non-zero
when any operation failed, any answer disagreed with the oracle, or the
child could not keep the one busy CPU it measures on.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_path() -> None:
    """Make ``perf`` and ``repro`` importable; keep this directory off
    ``sys.path`` so ``perf/trace.py`` cannot shadow the stdlib ``trace``."""
    here = Path(__file__).resolve().parent
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != here]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]


#: Burns one CPU's idle time at the lowest priority while its parent lives.
_SPINNER = """
import os, sys, time
cpu, parent = int(sys.argv[1]), int(sys.argv[2])
os.sched_setaffinity(0, {cpu})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == parent:
    end = time.monotonic() + 0.1
    while time.monotonic() < end:
        pass
"""


def own_one_cpu() -> tuple[int, subprocess.Popen]:
    """Pin this process to one CPU and keep that CPU from going idle.

    The request path sleeps and wakes several times per request (epoll,
    executor hop).  On a virtual machine an idle CPU halts, and both the
    halt and the wake-up (an inter-processor interrupt when the waker
    sits on the other CPU) leave the guest, at a price set by whatever
    else the host is doing.  With every thread on one CPU and an
    idle-priority spinner holding it, a wake-up is a context switch
    inside the guest.  Returns the CPU and the spinner; raises
    ``AttributeError`` or ``OSError`` where the platform refuses.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu, subprocess.Popen(
        [sys.executable, "-c", _SPINNER, str(cpu), str(os.getpid())]
    )


def environment(**regime: object) -> dict[str, object]:
    """Return what the numbers depend on besides the code; a child adds
    the ``regime`` it measured under."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "REPRO_VECTORIZED": os.environ.get("REPRO_VECTORIZED", "1"),
        "commit": _commit(),
        "traffic": "loopback TCP; server, clients and driver share one process",
        "collector": "gc.collect + gc.freeze at the start of every round",
        **regime,
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else ref[5:]


async def run_child(args: argparse.Namespace, cpu: int, spinner: subprocess.Popen) -> int:
    from perf import metrics as names
    from perf.harness import Run
    from perf.ledger import per_layer
    from perf.workloads import WORKLOADS

    run = Run(WORKLOADS[args.workload], args.seed, quick=args.quick, seconds=args.seconds)
    await run.set_up()
    try:
        if args.trace:
            await run.measure(run.untraced_rounds)
            values = await per_layer(run)
            units = names.PER_LAYER
            raw = {}
        else:
            await run.measure(run.measured_rounds)
            values = run.end_to_end()
            units = names.END_TO_END
            raw = {name: run.raw(name) for name in names.TIMED}
        last = run.requests.probes(run.day, "cold", 8)
        self_check = run.oracle.self_check(last, args.seed)
    finally:
        await run.close()
    failed = run.failure_count()
    regime = environment(pinned_cpu=cpu, spinner_alive=spinner.poll() is None)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {regime}")
    if not regime["spinner_alive"]:
        # Without it the CPU halts between requests and every TCP timing
        # roughly doubles: not a run to compare with one that had it.
        print(
            f"perf/run.py: the idle-priority spinner exited ({spinner.returncode}); "
            "this run was not measured under the benchmark's regime",
            file=sys.stderr,
        )
        return 3
    for name in units:
        value, n = values[name]
        unnormalised = f" raw={raw[name]:.6f}" if name in raw else ""
        print(
            f"{args.workload:12s} {name:32s} {value:16.6f} {units[name]:6s} n={n}"
            + unnormalised
        )
    print(
        f"{args.workload:12s} {'failed_share':32s} {failed / run.attempted:16.6f} "
        f"{'ratio':6s} n={run.attempted} oracle_checked={run.oracle.checked}"
    )
    print(
        json.dumps(
            {
                "correct": failed == 0 and self_check,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name][0], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 and self_check else 1


def run_children(args: argparse.Namespace) -> int:
    """Run every workload, untraced then traced, one child each."""
    from perf.workloads import WORKLOADS

    report: dict[str, object] = {"env": environment(), "seed": args.seed, "workloads": {}}
    status = 0
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--quick"] if args.quick else [])
            child = subprocess.run(
                command, stdout=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONHASHSEED": "0"},
            )
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode != 0:
                status = 1
            if lines and lines[-1].startswith("{"):
                results["per_layer" if trace else "end_to_end"] = json.loads(lines[-1])
        report["workloads"][workload] = results
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no program to measure at {ROOT / 'src'}", file=sys.stderr)
        return 2
    _import_path()
    from perf.metrics import DECLARED
    from perf.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=DECLARED["run_seconds"],
        help="how much to measure: rounded to whole wave cycles of about 4 s "
        "each, at least one (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="3 rounds, 100 docs/day")
    parser.add_argument("--out", help="write the merged JSON report here")
    args = parser.parse_args()
    if args.workload is None:
        return run_children(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes are salted per process; pin them (noise rule 5).
        os.execve(
            sys.executable, [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    try:
        cpu, spinner = own_one_cpu()
    except (AttributeError, OSError) as error:
        print(f"perf/run.py: cannot pin to one CPU ({error!r})", file=sys.stderr)
        return 3
    try:
        return asyncio.run(run_child(args, cpu, spinner))
    finally:
        spinner.kill()
        spinner.wait()


if __name__ == "__main__":
    sys.exit(main())

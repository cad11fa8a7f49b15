"""A/A check: run the same code in alternating sets and compare medians.

``python3 perf/aa.py [--sets 2] [--runs 3] [--seed 7]`` runs every
workload ``runs`` times per set, alternating the sets (A B A B ...) so
a slow phase of the host falls on both, and once more per set with
tracing on.  For each workload x end-to-end metric it prints every
set's median, the largest gap between two set medians as a share of the
first, and what that gap may be: the metric's bound from
``BENCHMARK.json``, or nothing at all for the exact metrics, which one
seed must reproduce to the last digit.  The ``storage.*`` counts of the
traced runs must be identical too.  Exits non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
#: End-to-end metrics computed from simulated clocks and byte counts.
EXACT = ("space_amp", "sim_s_per_read")


def one_run(workload: str, seed: int, trace: int) -> dict[str, float]:
    """Run one child; return its metric values."""
    child = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(DECLARED["run_seconds"]),
            "--trace", str(trace),
        ],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(child.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3, help="runs per set and workload")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    letters = "ABCDEFGH"[: args.sets]

    values: dict[tuple[str, str, str], list[float]] = {}
    storage: dict[tuple[str, str], dict[str, float]] = {}
    for i in range(args.runs):
        for s in letters:
            for workload in WORKLOADS:
                run = one_run(workload, args.seed, trace=0)
                for name, value in run.items():
                    values.setdefault((workload, s, name), []).append(value)
                print(f"# set {s} run {i} {workload}: "
                      + " ".join(f"{n}={v:.5g}" for n, v in run.items()), flush=True)
    for s in letters:
        for workload in WORKLOADS:
            traced = one_run(workload, args.seed, trace=1)
            storage[workload, s] = {
                n: v for n, v in traced.items() if n.startswith("storage.")
            }

    over = 0
    print(
        f"{'workload':12s} {'metric':20s} "
        + " ".join(f"{'median ' + s:>12s}" for s in letters)
        + f" {'gap':>7s} {'allowed':>7s}"
    )
    for workload in WORKLOADS:
        for metric in DECLARED["end_to_end"]:
            name = metric["name"]
            medians = [statistics.median(values[workload, s, name]) for s in letters]
            if name in EXACT:
                # One seed must reproduce these in every run, not only in
                # every median.
                runs = [v for s in letters for v in values[workload, s, name]]
                gap, allowed = (max(runs) - min(runs)) / runs[0], 0.0
            else:
                gap, allowed = (max(medians) - min(medians)) / medians[0], metric["bound"]
            flag = ""
            if gap > allowed:
                over += 1
                flag = "  OVER"
            print(
                f"{workload:12s} {name:20s} "
                + " ".join(f"{m:12.5g}" for m in medians)
                + f" {gap:7.2%} {allowed:7.0%}{flag}"
            )
        differing = sorted(
            n for n in storage[workload, letters[0]]
            if len({storage[workload, s][n] for s in letters}) > 1
        )
        over += len(differing)
        print(
            f"{workload:12s} {len(storage[workload, letters[0]])} storage.* counts: "
            + (f"DIFFER in {', '.join(differing)}" if differing else "identical")
        )
    print(f"# {over} gaps over what is allowed")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())

"""Say what a perf-shaped cluster's resident memory is made of, then check three laws.

``perf/run.py`` reports ``rss_peak_mb`` as one number.  This builds the
cluster one of its workloads builds (``perf.workloads.build_cluster``, same
corpus, same shards, same set-up turns) and prints the number's
composition: ``ru_maxrss`` after the imports — standard library,
third-party and ``repro`` / ``perf`` in turn — and after the set-up, then —
from a second, ``tracemalloc``-traced build, so tracing cannot inflate the
first reading — the live bytes by allocating module, with the modules that
lay down the corpus, the posting runs and the layouts named.  A memory PR
starts from this table instead of a guess.

The laws: a word is one ``str``, a record is one object, and the imports
are the standard library's and our own.  Exit status 1 if the corpus, the
shard stores or the posting runs hold more ``str`` objects than distinct
words, if more ``Record`` instances are alive after the set-up than the
source store holds (a shard's store is a view; a later change that lays
the per-shard copies down again fails here), or if importing
``perf.workloads`` loads any third-party module (a later change that
brings a dependency onto the served path fails here).

    python .github/scripts/footprint.py [--workload day-turn] [--seed 7] [--days 33]
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import resource
import subprocess
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PATH = [ROOT, os.path.join(ROOT, "src")]
OWN = {"repro", "perf"}

#: What the modules that dominate a set-up lay down.
ROLES = {
    "workloads/text.py": "corpus: lexicon, source records, values tuples",
    "core/records.py": "day batches, posting runs",
    "index/bucket.py": "packed layouts, buckets, runs",
    "index/constituent.py": "constituents, unpacked directories",
    "storage/allocator.py": "extents",
}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def imports_of(module: str) -> list[str]:
    """Return the top-level modules a fresh interpreter loads to import ``module``."""
    probe = (
        f"import sys; before = set(sys.modules); sys.path[:0] = {PATH!r}; "
        f"import {module}; "
        "print(*sorted({n.partition('.')[0] for n in set(sys.modules) - before}))"
    )
    return subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout.split()


def word_objects(sim) -> list[tuple[str, int, int]]:
    """Return ``(holder, str objects, distinct words)`` for every holder."""
    holders = [("corpus", sim.store)]
    holders += [(f"shard {shard.shard_id} store", shard.store) for shard in sim.shards]
    held = [
        (name, [v for day in store.days for r in store.batch(day).records for v in r.values])
        for name, store in holders
    ]
    held.append((
        "posting-run keys",
        [
            v
            for shard in sim.shards
            for run in shard.store.runs_for(shard.store.days[-3:])
            for v in run.grouped
        ],
    ))
    held.append(("all of the above", [v for _, values in held for v in values]))
    return [(name, len(set(map(id, values))), len(set(values))) for name, values in held]


def live_records() -> int:
    from repro.core.records import Record

    gc.collect()
    return sum(type(o) is Record for o in gc.get_objects())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="day-turn")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--days", type=int, default=33)
    args = parser.parse_args()

    bare = rss_mb()
    loaded = imports_of("perf.workloads")
    stdlib = [m for m in loaded if m in sys.stdlib_module_names]
    third_party = [m for m in loaded if m not in sys.stdlib_module_names and m not in OWN]
    steps = []
    for kind, modules in (("standard library", stdlib), ("third-party", third_party)):
        for module in modules:
            importlib.import_module(module)
        steps.append((f"+ {kind} ({len(modules)})", rss_mb()))
    sys.path[:0] = PATH
    from perf.workloads import WORKLOADS, build_cluster

    workload = WORKLOADS[args.workload]
    imported = rss_mb()
    store, sim = build_cluster(workload, args.seed, args.days)
    built = rss_mb()
    records = sum(len(store.batch(day).records) for day in store.days)
    live = live_records()
    laws = word_objects(sim)
    del store, sim
    gc.collect()

    tracemalloc.start()
    store, sim = build_cluster(workload, args.seed, args.days)
    gc.collect()
    by_file = tracemalloc.take_snapshot().statistics("filename")
    tracemalloc.stop()

    print(f"{args.workload}, seed {args.seed}, {args.days} days: "
          f"{records} source records, {live} live Record objects")
    print("ru_maxrss, MB")
    print(f"  {'bare interpreter':<32}{bare:>10.1f}")
    for step, rss in steps:
        print(f"  {step:<32}{rss:>10.1f}")
    print(f"  {'+ repro, perf':<32}{imported:>10.1f}")
    print(f"  {'+ set-up (corpus, cluster)':<32}{built:>10.1f}")
    print(f"{'live after set-up, by module':<34}{'MB':>10}{'blocks':>10}")
    total = other = 0
    for stat in by_file:
        path = stat.traceback[0].filename.replace(os.sep, "/")
        total += stat.size
        module = path.split("/repro/")[-1]
        if "/repro/" not in path or stat.size < 256 * 1024:
            other += stat.size
            continue
        print(f"  {module:<32}{stat.size / 2**20:>10.2f}{stat.count:>10}"
              f"  {ROLES.get(module, '')}")
    print(f"  {'everything else':<32}{other / 2**20:>10.2f}")
    print(f"  {'total traced':<32}{total / 2**20:>10.2f}")

    print(f"{'a word is one str':<34}{'objects':>10}{'distinct':>10}")
    broken = 0
    for name, objects, distinct in laws:
        print(f"  {name:<32}{objects:>10}{distinct:>10}")
        broken += objects > distinct
    if broken:
        print(f"FAIL: {broken} holder(s) keep more str objects than distinct words")
    print(f"{'a record is one object':<34}{'objects':>10}{'records':>10}")
    print(f"  {'live after set-up':<32}{live:>10}{records:>10}")
    if live != records:
        print(f"FAIL: {live} Record objects are alive for {records} source records")
    print(f"{'no third-party import':<34}{'modules':>10}")
    print(f"  {'loaded by perf.workloads':<32}{len(third_party):>10}  "
          f"{' '.join(third_party)}".rstrip())
    if third_party:
        print(f"FAIL: importing perf.workloads loads {', '.join(third_party)}")
    return 1 if broken or live != records or third_party else 0


if __name__ == "__main__":
    sys.exit(main())

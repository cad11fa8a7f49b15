"""The overlap benchmark's timelines are the ones its committed report holds.

Both of the benchmark's modes run through the cluster's day loop: one
shard, one replica, on one device (serialized) or spanning three
(overlapped).  ``BENCH_overlap.json`` was produced by a separate
overlapped engine before that engine was folded into the loop, so its
per-scheme numbers — makespans, latency summaries, wait counts — are the
oracle the loop's serving rules must reproduce bit for bit.  Among those
rules: a unit that charges a device no time does not queue behind it.
"""

import json
from pathlib import Path

import pytest

from repro.bench.overlap import run_overlap_bench

COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_overlap.json"


@pytest.fixture(scope="module")
def reports():
    committed = json.loads(COMMITTED.read_text(encoding="utf-8"))
    regenerated = json.loads(json.dumps(run_overlap_bench()))
    return committed, regenerated


@pytest.mark.parametrize("mode", ["serialized", "overlapped"])
def test_both_modes_reproduce_the_committed_timelines(reports, mode):
    committed, regenerated = reports
    assert [s["scheme"] for s in regenerated["schemes"]] == [
        s["scheme"] for s in committed["schemes"]
    ]
    for mine, theirs in zip(regenerated["schemes"], committed["schemes"]):
        assert mine[mode] == theirs[mode], mine["scheme"]

"""The two serving benches on virtual time: byte-stable, every claim held.

Each quick run is a full sweep or scenario set on a
:class:`~repro.serve.vtime.VirtualTimeLoop` (the resilience scenarios
over real loopback TCP); two runs of the same config must write the same
bytes, and the process must still be one thread afterwards.
"""

import threading

import pytest

from repro.bench.harness import bench, write_report


@pytest.mark.parametrize("name", ["frontend", "resilience"])
def test_two_quick_runs_write_identical_reports(name, tmp_path):
    declared = bench(name)
    written = []
    for run in ("first", "second"):
        report = declared.execute(quick=True)
        written.append(
            write_report(report, tmp_path / f"{run}.json").read_bytes()
        )
        assert threading.active_count() == 1
    assert written[0] == written[1]
    assert report["workload"]["quick"] is True
    assert declared.claim(report)
    assert all(report["headline"]["claim"].values())
    if name == "resilience":
        assert report["headline"]["chaos_cells_passed"] == 5
        assert report["headline"]["chaos_cells_total"] == 5

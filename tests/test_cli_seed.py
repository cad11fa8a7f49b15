"""Seed-plumbing regression tests: same seed, byte-identical artifact.

Every seeded bench reads its RNG seed from its config's ``seed`` field
(set through ``Bench.execute(seed=...)``; ``bench-advisor`` also takes
``--seed``).  These tests pin the contract that matters downstream: two
runs with the same seed produce *byte-identical* JSON artifacts, and a
different seed a different one.  A bench that grows an unseeded RNG (or
stamps wall-clock time into its report) breaks here, not in CI
archaeology.
"""

import pytest

from repro.bench.harness import bench, write_report
from repro.cli import _BENCHES

#: (subcommand, extra overrides) for every seeded artifact-writing bench.
BENCH_COMMANDS = (
    ("bench-serving", {}),
    ("bench-overlap", {"transitions": 3, "schemes": ("REINDEX",)}),
    ("bench-cluster", {}),
    ("bench-elastic", {}),
    ("bench-advisor", {}),
)


def _run(command, extra, out_path, seed):
    report = bench(_BENCHES[command][0]).execute(quick=True, seed=seed, **extra)
    return write_report(report, out_path).read_bytes()


@pytest.mark.parametrize("command,extra", BENCH_COMMANDS)
class TestSeedDeterminism:
    def test_same_seed_same_bytes(self, command, extra, tmp_path):
        first = _run(command, extra, tmp_path / "a.json", 11)
        second = _run(command, extra, tmp_path / "b.json", 11)
        assert first == second

    def test_different_seed_different_bytes(self, command, extra, tmp_path):
        base = _run(command, extra, tmp_path / "a.json", 11)
        other = _run(command, extra, tmp_path / "b.json", 12)
        assert base != other

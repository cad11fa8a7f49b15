"""Seed-plumbing regression tests: same seed, byte-identical artifact.

Every bench subcommand resolves its RNG seed in the one bench runner
(per-command ``--seed``, then the global flag, then the config's
default).  These tests pin the contract that
matters downstream: two runs with the same seed produce *byte-identical*
JSON artifacts, and the global and per-command spellings of the same
seed are interchangeable.  A subcommand that grows an unseeded RNG (or
stamps wall-clock time into its report) breaks here, not in CI archaeology.
"""

import json

import pytest

from repro.cli import main

#: (subcommand, extra args) for every artifact-writing bench command.
BENCH_COMMANDS = (
    ("bench-serving", ()),
    ("bench-overlap", ("--transitions", "3", "--schemes", "REINDEX")),
    ("bench-cluster", ()),
    ("bench-elastic", ()),
    ("bench-advisor", ()),
)


def _run(command, extra, out_path, seed_args):
    argv = [*seed_args[:2], command, "--quick", "--out", str(out_path),
            *extra, *seed_args[2:]]
    assert main(argv) == 0
    return out_path.read_bytes()


@pytest.mark.parametrize("command,extra", BENCH_COMMANDS)
class TestSeedDeterminism:
    def test_same_seed_same_bytes(self, command, extra, tmp_path, capsys):
        first = _run(command, extra, tmp_path / "a.json",
                     ("--seed", "11"))
        second = _run(command, extra, tmp_path / "b.json",
                      ("--seed", "11"))
        capsys.readouterr()
        assert first == second

    def test_global_seed_equals_per_command_seed(
        self, command, extra, tmp_path, capsys
    ):
        # Global spelling: repro --seed 11 bench-X ...
        via_global = _run(command, extra, tmp_path / "g.json",
                          ("--seed", "11"))
        # Per-command spelling: repro bench-X ... --seed 11 (with a
        # decoy global seed that must lose to the per-command flag).
        via_command = _run(command, extra, tmp_path / "c.json",
                           ("--seed", "99", "--seed", "11"))
        capsys.readouterr()
        assert via_global == via_command

    def test_different_seed_different_bytes(
        self, command, extra, tmp_path, capsys
    ):
        base = _run(command, extra, tmp_path / "a.json", ("--seed", "11"))
        other = _run(command, extra, tmp_path / "b.json", ("--seed", "12"))
        capsys.readouterr()
        assert base != other


def test_global_seed_reaches_a_seeds_field(tmp_path, capsys):
    # A bench seeded by a list of seeds takes the global seed as (N,).
    out_path = tmp_path / "t.json"
    assert main([
        "--seed", "3", "topology-chaos", "--quick", "--kinds", "merge",
        "--out", str(out_path),
    ]) == 0
    capsys.readouterr()
    assert json.loads(out_path.read_text())["config"]["seeds"] == [3]

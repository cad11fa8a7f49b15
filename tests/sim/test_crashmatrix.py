"""Tests for the crash-matrix harness.

The exhaustive matrix (all schemes, three cycles) runs from the CLI / CI
smoke job; here a small configuration exercises the harness mechanics.
"""

import pytest

from repro.index.updates import UpdateTechnique
from repro.sim.crashmatrix import (
    CrashCell,
    DEFAULT_SCHEMES,
    _make_store,
    _probe_values,
    _scheme_factory,
    _twin_run,
    run_crash_matrix,
)

WINDOW, N = 5, 2


class TestMatrixMechanics:
    def test_del_matrix_passes_and_every_crash_fires(self):
        result = run_crash_matrix(
            ("DEL",), window=WINDOW, n_indexes=N, cycles=1, seed=3
        )
        assert result.ok
        assert result.failures == []
        assert result.cells
        assert all(cell.crashed for cell in result.cells)
        # One cell per op boundary of each steady-state transition.
        days = {cell.day for cell in result.cells}
        assert days == set(range(WINDOW + 1, 2 * WINDOW + 1))

    def test_io_samples_add_mid_op_cells(self):
        with_io = run_crash_matrix(
            ("DEL",), window=WINDOW, n_indexes=N, cycles=1, seed=3,
            io_crash_samples=1,
        )
        boundary_only = run_crash_matrix(
            ("DEL",), window=WINDOW, n_indexes=N, cycles=1, seed=3
        )
        assert with_io.ok
        # The REBALANCE pseudo-scheme's cells are all mid-I/O by design;
        # the sampling claim is about the scheme matrix, so scope to it.
        scheme_cells = [c for c in with_io.cells if c.scheme == "DEL"]
        baseline_cells = [
            c for c in boundary_only.cells if c.scheme == "DEL"
        ]
        mid_op = [c for c in scheme_cells if c.kind == "io"]
        assert mid_op
        assert len(scheme_cells) == len(baseline_cells) + len(mid_op)

    def test_enough_io_samples_crash_every_io_point_once(self):
        # With at least as many samples as a day makes I/Os, the day's
        # mid-op cells are exactly the I/O points 1 … ios-1.
        result = run_crash_matrix(
            ("DEL",), window=WINDOW, n_indexes=N, cycles=1, seed=3,
            io_crash_samples=10_000, include_rebalance=False,
        )
        assert result.ok
        last_day = 2 * WINDOW
        store = _make_store(last_day, 3)
        _, _, day_ios = _twin_run(
            _scheme_factory("DEL", WINDOW, N), store, WINDOW, N, last_day,
            UpdateTechnique.SIMPLE_SHADOW, _probe_values(store, WINDOW),
        )
        assert max(day_ios.values()) > 2
        for day, ios in day_ios.items():
            points = [c.at for c in result.cells if c.kind == "io" and c.day == day]
            assert points == list(range(1, ios)), day

    def test_temporary_scheme_passes(self):
        result = run_crash_matrix(
            ("REINDEX+",), window=WINDOW, n_indexes=N, cycles=1, seed=3
        )
        assert result.ok

    def test_summary_mentions_every_scheme(self):
        result = run_crash_matrix(
            ("DEL", "REINDEX"), window=WINDOW, n_indexes=N, cycles=1, seed=3
        )
        summary = result.summary()
        assert "DEL" in summary and "REINDEX" in summary
        assert "PASS" in summary

    def test_cycles_validated(self):
        with pytest.raises(ValueError):
            run_crash_matrix(("DEL",), cycles=0)

    def test_default_schemes_are_the_papers_six(self):
        assert DEFAULT_SCHEMES == (
            "DEL", "REINDEX", "REINDEX+", "REINDEX++", "WATA*", "RATA*"
        )


class TestCellReporting:
    def test_describe_renders_op_and_io_forms(self):
        ok = CrashCell("DEL", 8, "op", 2, True, True)
        assert "after op 2" in ok.describe()
        assert "ok" in ok.describe()
        bad = CrashCell("DEL", 8, "io", 5, True, False, detail="diverged")
        assert "after I/O 5" in bad.describe()
        assert "FAIL: diverged" in bad.describe()
        unfired = CrashCell("DEL", 8, "op", 99, False, True)
        assert "did not fire" in unfired.describe()

class TestRebalanceMatrix:
    def test_rebalance_cells_pass_at_every_io_boundary(self):
        result = run_crash_matrix(
            ("DEL",), window=WINDOW, n_indexes=N, cycles=1, seed=3,
            include_rebalance=True,
        )
        assert result.ok
        rebalance = [
            c for c in result.cells if c.scheme == "REBALANCE"
        ]
        assert rebalance
        # Every cell crashes mid-move at a distinct I/O point and the
        # move's contract holds (source serves, no orphans, retry ok).
        assert all(c.crashed for c in rebalance)
        assert all(c.ok for c in rebalance)
        assert all(c.kind == "io" for c in rebalance)
        points = {c.at for c in rebalance}
        assert len(points) == len(rebalance)

    def test_rebalance_opt_out(self):
        result = run_crash_matrix(
            ("DEL",), window=WINDOW, n_indexes=N, cycles=1, seed=3,
            include_rebalance=False,
        )
        assert result.ok
        assert all(c.scheme != "REBALANCE" for c in result.cells)

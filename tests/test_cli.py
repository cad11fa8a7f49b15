"""Tests for the ``python -m repro`` command-line interface."""

from pathlib import Path

import pytest

from repro.bench.tables import FIGURES
from repro.cli import main

OUT = Path(__file__).resolve().parent.parent / "benchmarks" / "out"


class TestSchemes:
    def test_lists_all_six(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in ("DEL", "REINDEX", "REINDEX+", "REINDEX++", "WATA*", "RATA*"):
            assert name in out


class TestTrace:
    def test_trace_reindex(self, capsys):
        assert main(["trace", "REINDEX", "-w", "10", "-n", "2", "-d", "12"]) == 0
        out = capsys.readouterr().out
        assert "I1 <- BuildIndex({2, 3, 4, 5, 11})" in out
        assert "{d3, d4, d5, d11, d12}" in out

    def test_default_horizon(self, capsys):
        assert main(["trace", "DEL", "-w", "5", "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "11" in out  # window + 6

    def test_unknown_scheme_fails_cleanly(self, capsys):
        assert main(["trace", "NOPE"]) == 2
        assert "unknown scheme" in capsys.readouterr().err


class TestFigure:
    def test_fig11(self, capsys):
        assert main(["figure", "fig11"]) == 0
        out = capsys.readouterr().out
        assert "index-size ratio" in out
        rows = [line.split() for line in out.splitlines()[3:]]
        assert [row[0] for row in rows] == ["2", "3", "4", "5", "6", "7", "OPT(n=2)"]

    @pytest.mark.parametrize("name", FIGURES)
    def test_prints_the_committed_figure(self, name, capsys):
        # The CLI prints the render its bench writes to benchmarks/out.
        (committed,) = OUT.glob(f"fig{int(name[3:]):02d}_*.txt")
        assert main(["figure", name]) == 0
        assert capsys.readouterr().out == committed.read_text(encoding="utf-8")

    def test_fig4(self, capsys):
        assert main(["figure", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "REINDEX" in out and "WATA*" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestAdvise:
    def test_wse_recommends_del_n1(self, capsys):
        assert main(["advise", "--scenario", "WSE", "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "DEL" in out
        assert "n=1" in out

    def test_tpcd_legacy_recommends_wata(self, capsys):
        assert (
            main(
                [
                    "advise",
                    "--scenario",
                    "TPC-D",
                    "--no-packed-shadow",
                    "--candidates",
                    "1",
                    "2",
                    "10",
                    "--top",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "WATA*" in out

    def test_hard_window_filter(self, capsys):
        assert (
            main(
                [
                    "advise",
                    "--scenario",
                    "TPC-D",
                    "--no-packed-shadow",
                    "--hard-window",
                    "--top",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "WATA*" not in out


class TestCalibrate:
    def test_reports_constants(self, capsys):
        assert main(["calibrate", "--scale-factor", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "Build =" in out
        assert "Add/Build" in out

    def test_with_memory_pool(self, capsys):
        assert (
            main(
                [
                    "calibrate",
                    "--cluster-days",
                    "2",
                    "--memory-mb",
                    "100",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "100.0 MB pool" in out


class TestLatency:
    def test_in_place_reports_blocking(self, capsys):
        assert main(["latency", "DEL", "--queries", "2000"]) == 0
        out = capsys.readouterr().out
        assert "blocked by maintenance" in out
        assert "0.0%" not in out.split("blocked")[-1]

    def test_shadow_reports_no_blocking(self, capsys):
        assert (
            main(
                [
                    "latency",
                    "DEL",
                    "--technique",
                    "simple_shadow",
                    "--queries",
                    "2000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "0.0%" in out

    def test_unknown_scheme(self, capsys):
        assert main(["latency", "NOPE"]) == 2

    def test_size_aware_scheme_not_traceable(self, capsys):
        assert main(["trace", "WATA(size)"]) == 2
        assert "extra configuration" in capsys.readouterr().err


class TestSensitivity:
    def test_reports_dominant_parameters(self, capsys):
        assert main(["sensitivity", "REINDEX", "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "dominant:" in out
        assert "build" in out

    def test_unknown_scheme(self):
        assert main(["sensitivity", "NOPE"]) == 2


class TestCrashTest:
    def test_small_matrix_passes(self, capsys):
        assert main([
            "crash-test", "DEL",
            "-w", "5", "-n", "2", "--cycles", "1", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "crash matrix" in out
        assert "PASS" in out
        assert "DEL" in out

    def test_verbose_lists_cells(self, capsys):
        assert main([
            "crash-test", "DEL",
            "-w", "5", "-n", "2", "--cycles", "1", "--verbose",
        ]) == 0
        assert "after op 0" in capsys.readouterr().out

    def test_unknown_scheme(self, capsys):
        assert main(["crash-test", "NOPE"]) == 2
        assert "unknown scheme" in capsys.readouterr().err


class TestBenchServing:
    def test_quick_run_writes_valid_report(self, capsys, tmp_path):
        import json

        from repro.bench.serving import BENCH

        out_path = tmp_path / "BENCH_serving.json"
        assert main(["bench-serving", "--quick", "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        BENCH.validate(report)
        assert report["bench"] == "serving"
        stdout = capsys.readouterr().out
        assert "batch" in stdout
        assert str(out_path) in stdout

    def test_bad_batch_sizes_rejected(self, capsys, tmp_path):
        code = main(
            [
                "bench-serving", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--batch-sizes", "0",
            ]
        )
        assert code == 2
        assert "batch" in capsys.readouterr().err.lower()


class TestBenchOverlap:
    def test_quick_run_writes_valid_report(self, capsys, tmp_path):
        import json

        from repro.bench.overlap import BENCH

        out_path = tmp_path / "BENCH_overlap.json"
        assert main(["bench-overlap", "--quick", "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        BENCH.validate(report)
        assert report["bench"] == "overlap"
        stdout = capsys.readouterr().out
        assert "makespan" in stdout
        assert str(out_path) in stdout

    def test_unknown_scheme_rejected(self, capsys, tmp_path):
        code = main(
            [
                "bench-overlap", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--schemes", "NOPE",
            ]
        )
        assert code == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_bad_devices_rejected(self, capsys, tmp_path):
        code = main(
            [
                "bench-overlap", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--devices", "1",
            ]
        )
        assert code == 2
        assert "devices" in capsys.readouterr().err


class TestBenchCluster:
    def test_quick_run_writes_valid_report(self, capsys, tmp_path):
        import json

        from repro.bench.cluster import BENCH

        out_path = tmp_path / "BENCH_cluster.json"
        assert main(["bench-cluster", "--quick", "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        BENCH.validate(report)
        assert report["bench"] == "cluster"
        stdout = capsys.readouterr().out
        assert "throughput scaling" in stdout
        assert str(out_path) in stdout

    def test_unknown_scheme_rejected(self, capsys, tmp_path):
        code = main(
            [
                "bench-cluster", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--scheme", "NOPE",
            ]
        )
        assert code == 2
        assert "NOPE" in capsys.readouterr().err

    def test_missing_baseline_shard_count_rejected(self, capsys, tmp_path):
        code = main(
            [
                "bench-cluster", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--shards", "2", "4",
            ]
        )
        assert code == 2
        assert "shard" in capsys.readouterr().err.lower()


class TestChaosSoak:
    def test_quick_strict_run_writes_valid_report(self, capsys, tmp_path):
        import json

        from repro.bench.chaos import BENCH

        out_path = tmp_path / "BENCH_chaos.json"
        assert (
            main(["chaos-soak", "--quick", "--out", str(out_path)])
            == 0
        )
        report = json.loads(out_path.read_text())
        BENCH.validate(report)
        assert report["bench"] == "chaos"
        assert report["headline"]["all_invariants_pass"] is True
        stdout = capsys.readouterr().out
        assert "recovery" in stdout
        assert str(out_path) in stdout

    def test_unknown_kill_point_rejected(self, capsys, tmp_path):
        code = main(
            [
                "chaos-soak", "--quick",
                "--out", str(tmp_path / "x.json"),
                "--kill-points", "transition",
                "--replication", "1",
            ]
        )
        assert code == 2
        assert "replication" in capsys.readouterr().err


#: Commands that take a scheme: their impossible ``(W, n)``.  ``latency``
#: takes W from its scenario (7 for SCAM).
_IMPOSSIBLE_SCHEME = {
    "trace": ["DEL", "-w", "2", "-n", "5"],
    "latency": ["DEL", "-n", "500"],
}


@pytest.mark.parametrize(
    "command",
    ["bench-serving", "bench-overlap", "bench-cluster", "bench-elastic",
     "chaos-soak", "trace", "latency"],
)
def test_impossible_window_is_an_invalid_configuration(
    command, capsys, tmp_path
):
    # Five indexes cannot share a two-day window: exit 2 with a message,
    # not a traceback (exit 1 means a bench's claim failed).
    out = tmp_path / "x.json"
    assert main([
        command,
        *_IMPOSSIBLE_SCHEME.get(
            command, ["--quick", "-w", "2", "-n", "5", "--out", str(out)]
        ),
    ]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flags,field",
    [
        # The group refuses the field before the bench runs, by name.
        ("bench-elastic", ["--probes", "0"], "probes_per_day"),
        ("bench-advisor", ["--window", "0"], "window"),
    ],
)
def test_a_group_field_out_of_range_is_an_invalid_configuration(
    command, flags, field, capsys, tmp_path
):
    out = tmp_path / "x.json"
    assert main([command, "--quick", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert field in err
    assert not out.exists()


class TestBenchCheck:
    @staticmethod
    def _reports(tmp_path, speedup=4.0):
        import json

        serving = tmp_path / "BENCH_serving.json"
        serving.write_text(json.dumps({
            "bench": "serving",
            "speedups": {"batch256_cached_vs_unbatched_uncached": speedup},
        }))
        return serving

    def test_update_then_pass(self, capsys, tmp_path):
        serving = self._reports(tmp_path)
        baseline = tmp_path / "BENCH_baseline.json"
        assert main([
            "bench-check", str(serving),
            "--baseline", str(baseline), "--update",
        ]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main([
            "bench-check", str(serving), "--baseline", str(baseline),
        ]) == 0
        assert "gate ok" in capsys.readouterr().out

    def test_regression_fails_the_gate(self, capsys, tmp_path):
        baseline_src = self._reports(tmp_path, speedup=4.0)
        baseline = tmp_path / "BENCH_baseline.json"
        main(["bench-check", str(baseline_src),
              "--baseline", str(baseline), "--update"])
        capsys.readouterr()
        regressed = self._reports(tmp_path, speedup=1.0)
        assert main([
            "bench-check", str(regressed), "--baseline", str(baseline),
        ]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_baseline_fails_cleanly(self, capsys, tmp_path):
        serving = self._reports(tmp_path)
        code = main([
            "bench-check", str(serving),
            "--baseline", str(tmp_path / "nope.json"),
        ])
        assert code == 2
        assert "baseline" in capsys.readouterr().err


class TestGlobalSeed:
    def test_global_seed_reaches_subcommand(self, capsys):
        assert main([
            "--seed", "3",
            "crash-test", "DEL", "-w", "5", "-n", "2", "--cycles", "1",
        ]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_subcommand_seed_wins_over_global(self, capsys):
        # Both spellings must run; the per-command flag takes precedence,
        # so this is the same matrix as --seed 3 in TestCrashTest.
        assert main([
            "--seed", "9",
            "crash-test", "DEL",
            "-w", "5", "-n", "2", "--cycles", "1", "--seed", "3",
        ]) == 0
        assert "PASS" in capsys.readouterr().out


class TestCrashTestRebalance:
    def test_rebalance_rows_included_by_default(self, capsys):
        assert main([
            "crash-test", "DEL",
            "-w", "5", "-n", "2", "--cycles", "1", "--seed", "3",
        ]) == 0
        assert "REBALANCE" in capsys.readouterr().out

    def test_no_rebalance_flag_drops_the_rows(self, capsys):
        assert main([
            "crash-test", "DEL",
            "-w", "5", "-n", "2", "--cycles", "1", "--seed", "3",
            "--no-rebalance",
        ]) == 0
        out = capsys.readouterr().out
        assert "REBALANCE" not in out
        assert "PASS" in out


class TestBenchElastic:
    def test_quick_run_writes_valid_report(self, capsys, tmp_path):
        import json

        from repro.bench.elastic import BENCH

        out_path = tmp_path / "BENCH_elastic.json"
        assert main([
            "bench-elastic", "--quick", "--out", str(out_path),
        ]) == 0
        report = json.loads(out_path.read_text())
        BENCH.validate(report)
        assert report["bench"] == "elastic"
        stdout = capsys.readouterr().out
        assert "recovery" in stdout
        assert str(out_path) in stdout

    def test_failed_claim_exits_1_and_still_writes_the_report(
        self, capsys, tmp_path
    ):
        # No spike, so the autoscaler never splits: the claim fails.
        out_path = tmp_path / "BENCH_elastic.json"
        assert main([
            "bench-elastic", "--quick", "--spike-factor", "1",
            "--out", str(out_path),
        ]) == 1
        assert out_path.exists()
        assert "FAILED" in capsys.readouterr().err

    def test_unknown_scheme_fails_cleanly(self, capsys, tmp_path):
        assert main([
            "bench-elastic", "--quick", "--scheme", "NOPE",
            "--out", str(tmp_path / "x.json"),
        ]) == 2
        assert capsys.readouterr().err


class TestTopologyChaos:
    def test_quick_run_writes_valid_report(self, capsys, tmp_path):
        import json

        from repro.bench.topology_chaos import BENCH

        out_path = tmp_path / "BENCH_topology_chaos.json"
        assert main([
            "topology-chaos", "--quick", "--out", str(out_path),
        ]) == 0
        report = json.loads(out_path.read_text())
        BENCH.validate(report)
        assert report["bench"] == "topology_chaos"
        assert report["headline"]["pass"] is True
        stdout = capsys.readouterr().out
        assert "cells" in stdout
        assert str(out_path) in stdout

    def test_fault_and_kind_filters(self, tmp_path):
        import json

        out_path = tmp_path / "BENCH_topology_chaos.json"
        assert main([
            "topology-chaos", "--quick",
            "--kinds", "merge", "--faults", "crash",
            "--out", str(out_path),
        ]) == 0
        report = json.loads(out_path.read_text())
        assert set(report["steps"]) == {"merge"}
        assert {c["fault"] for c in report["cells"]} == {"crash"}

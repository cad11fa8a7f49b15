"""Tests for the ``python -m repro`` command-line interface."""

from pathlib import Path

import pytest

from repro.bench.harness import bench
from repro.bench.tables import FIGURES
from repro.cli import _BENCHES, _INVALID, main

OUT = Path(__file__).resolve().parent.parent / "benchmarks" / "out"


def refused(command, **overrides):
    """Run bench ``command`` at quick size with ``overrides`` (fields a
    CLI flag no longer sets); return the message of the refusal."""
    with pytest.raises(_INVALID) as excinfo:
        bench(_BENCHES[command][0]).execute(quick=True, **overrides)
    return str(excinfo.value)


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

    def test_bad_batch_sizes_rejected(self):
        assert "batch" in refused("bench-serving", batch_sizes=(0,)).lower()


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

    def test_unknown_scheme_rejected(self):
        assert "unknown scheme" in refused("bench-overlap", schemes=("NOPE",))

    def test_bad_devices_rejected(self):
        assert "devices" in refused("bench-overlap", n_devices=1)


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

    def test_unknown_scheme_rejected(self):
        assert "NOPE" in refused("bench-cluster", scheme="NOPE")

    def test_missing_baseline_shard_count_rejected(self):
        assert "shard" in refused("bench-cluster", shard_counts=(2, 4)).lower()


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

    def test_unknown_kill_point_rejected(self):
        assert "replication" in refused(
            "chaos-soak", kill_points=("transition",), replication=1
        )


#: Commands that take a scheme: their impossible ``(W, n)``.  ``latency``
#: takes W from its scenario (7 for SCAM).
_IMPOSSIBLE_SCHEME = {
    "trace": ["DEL", "-w", "2", "-n", "5"],
    "latency": ["DEL", "-n", "500"],
}

#: Arguments each command refuses before it runs: exit 2 with
#: ``invalid configuration``, never a traceback.
_REFUSED_ARGUMENTS = {
    "trace-days-before-window": ["trace", "DEL", "-w", "5", "-n", "2",
                                 "--days", "0"],
    "sensitivity-no-indexes": ["sensitivity", "DEL", "-n", "0"],
    "sensitivity-impossible-n": ["sensitivity", "DEL", "-n", "50"],
    "latency-negative-queries": ["latency", "DEL", "--queries", "-5"],
    "calibrate-no-cluster-days": ["calibrate", "--cluster-days", "0"],
    "crash-test-negative-io-samples": ["crash-test", "DEL", "-w", "5", "-n",
                                       "2", "--io-samples", "-1"],
    "bench-advisor-one-phase-day": ["bench-advisor", "--quick",
                                    "--phase-days", "1"],
}


@pytest.mark.parametrize(
    "command",
    ["bench-serving", "bench-overlap", "bench-cluster", "bench-elastic",
     "chaos-soak", "trace", "latency"],
)
def test_impossible_window_is_an_invalid_configuration(command, capsys):
    # Five indexes cannot share a two-day window: a refusal with a
    # message, not a traceback (exit 1 means a bench's claim failed).
    if command in _BENCHES:
        refused(command, window=2, n_indexes=5)
        return
    assert main([command, *_IMPOSSIBLE_SCHEME[command]]) == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("argv", _REFUSED_ARGUMENTS.values(),
                         ids=_REFUSED_ARGUMENTS)
def test_refused_arguments_exit_2_and_write_nothing(
    argv, capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command,flags,field",
    [
        # The group refuses the field before the bench runs, by name.
        ("bench-elastic", {"probes_per_day": 0}, "probes_per_day"),
        ("bench-advisor", {"window": 0}, "window"),
    ],
)
def test_a_group_field_out_of_range_is_an_invalid_configuration(
    command, flags, field
):
    assert field in refused(command, **flags)


@pytest.mark.parametrize(
    "flags,field",
    [(["--window", "0"], "window"), (["--shards", "0"], "n_shards")],
)
def test_serve_refuses_an_invalid_demo_cluster_by_name(flags, field, capsys):
    # Refused before the cluster is built or a port is bound.
    assert main(["serve", "--port", "0", *flags]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert field in err


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
        self, capsys, tmp_path, monkeypatch
    ):
        # No spike, so the autoscaler never splits: the claim fails.
        import dataclasses

        from repro.bench import elastic
        from repro.bench.harness import override

        quick = elastic.BENCH.quick_config
        monkeypatch.setattr(elastic, "BENCH", dataclasses.replace(
            elastic.BENCH,
            quick_config=lambda c: override(quick(c), spike_factor=1.0),
        ))
        out_path = tmp_path / "BENCH_elastic.json"
        assert main([
            "bench-elastic", "--quick", "--out", str(out_path),
        ]) == 1
        assert out_path.exists()
        assert "FAILED" in capsys.readouterr().err

    def test_unknown_scheme_fails_cleanly(self):
        assert "NOPE" in refused("bench-elastic", scheme="NOPE")


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

    def test_fault_and_kind_filters(self):
        report = bench("topology_chaos").execute(
            quick=True, kinds=("merge",), faults=("crash",)
        )
        assert set(report["steps"]) == {"merge"}
        assert {c["fault"] for c in report["cells"]} == {"crash"}

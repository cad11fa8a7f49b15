"""A ``--quick`` run of the whole suite emits what BENCHMARK.json promises."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perf.metrics import DECLARED, END_TO_END, PER_LAYER, TIMED
from perf.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SERVE_ONLY = ("protocol.", "admission.", "server.", "client.")


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--quick", "--out", str(out)],
        check=True, cwd=ROOT, timeout=120, stdout=subprocess.DEVNULL,
    )
    return json.loads(out.read_text())


def test_every_workload_reports_every_end_to_end_metric(report):
    assert list(report["workloads"]) == list(WORKLOADS)
    for workload, results in report["workloads"].items():
        run = results["end_to_end"]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert list(run["metrics"]) == list(END_TO_END), workload
        for name, metric in run["metrics"].items():
            assert NAME.fullmatch(name)
            assert metric["unit"] == END_TO_END[name]
            assert math.isfinite(metric["value"]) and metric["value"] > 0, (workload, name)


def test_every_workload_reports_every_per_layer_metric(report):
    for workload, results in report["workloads"].items():
        run = results["per_layer"]
        assert run["correct"] and run["failed"] == 0
        assert list(run["metrics"]) == list(PER_LAYER), workload
        for name, metric in run["metrics"].items():
            assert NAME.fullmatch(name)
            assert math.isfinite(metric["value"]), (workload, name)
            if name.endswith(("_us", "_ms")) and not name.startswith("raw."):
                assert metric["value"] >= 0, (workload, name)


def test_the_serve_layer_does_no_work_off_the_tcp_path(report):
    for workload, spec in WORKLOADS.items():
        metrics = report["workloads"][workload]["per_layer"]["metrics"]
        serve = {n: m["value"] for n, m in metrics.items() if n.startswith(SERVE_ONLY)}
        if spec.path == "coord":
            assert not any(serve.values()), (workload, serve)
        else:
            assert all(
                v > 0 for n, v in serve.items() if n != "admission.queue_wait_us"
            ), (workload, serve)


def test_answer_size_moves_the_protocol_layers_share_of_a_request(report):
    def protocol_share(workload):
        metrics = report["workloads"][workload]["per_layer"]["metrics"]
        marshalling = sum(
            m["value"] for n, m in metrics.items()
            if n.startswith("protocol.") and n.endswith("_us")
        )
        return marshalling / metrics["client.req_us"]["value"]

    assert protocol_share("posting-tcp") > protocol_share("point-tcp")


def test_benchmark_json_lists_exactly_what_the_runner_emits():
    # The two tests above check the metric names: END_TO_END and
    # PER_LAYER are what BENCHMARK.json declares.
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert set(TIMED) <= set(END_TO_END)
    assert DECLARED["paths"] == ["perf"]
    assert DECLARED["command"] == ["python3", "perf/run.py"]

"""Serving benchmark: Zipf query replay over cache x batch-size grid.

Not a paper figure — this exercises the serving-path extensions (the
trace-driven page cache and the batched probe/scan APIs) against a
SCAM-sized DEL window.  The full grid lives behind ``repro bench-serving``
and writes ``BENCH_serving.json`` at the repo root; this bench runs the
quick configuration so the harness stays fast.
"""

from repro.bench.serving import (
    BENCH,
    quick_config,
    render_summary,
    run_serving_bench,
)


def test_bench_serving(report):
    result = run_serving_bench(quick_config())
    BENCH.validate(result)
    base = result["configs"][0]
    fast = result["configs"][-1]
    assert fast["seconds"] < base["seconds"]
    report("serving", render_summary(result))

"""Pin the CLI surface: subcommands, option strings, defaults, choices.

Bench flags are declared once, in ``repro.cli``'s bench table, with
field names as their dests: a field of the bench's config or of one of
its groups.  These tests hold every option a user can type to its
spelling, default and choices, every registered bench to a subcommand,
and every bench flag to a field it sets only when given.
"""

import argparse

from dataclasses import fields, is_dataclass

from repro.bench.harness import NAMES, bench, owner
from repro.cli import _BENCHES, build_parser

#: subcommand -> {option strings (or a positional's name): (default,
#: choices)}.
SURFACE = {
    "advise": {
        "--candidates": ([1, 2, 4, 7, 10], None),
        "--hard-window": (False, None),
        "--no-packed-shadow": (False, None),
        "--scenario": ("SCAM", ("SCAM", "TPC-D", "WSE")),
        "--top": (5, None),
    },
    "bench-advisor": {
        "--out": ("BENCH_advisor.json", None),
        "--phase-days": (None, None),
        "--quick": (False, None),
        "--seed": (None, None),
        "--volume-ramp": (None, None),
        "--window -w": (None, None),
    },
    "bench-check": {
        "--baseline": ("BENCH_baseline.json", None),
        "--threshold": (None, None),
        "--update": (False, None),
        "reports": (None, None),
    },
    "bench-cluster": {
        "--arrival-stretch": (None, None),
        "--indexes -n": (None, None),
        "--max-concurrent-frac": (None, None),
        "--out": ("BENCH_cluster.json", None),
        "--partitioner": (None, ("hash", "range")),
        "--probes": (None, None),
        "--quick": (False, None),
        "--replication -r": (None, None),
        "--scans": (None, None),
        "--scheme": (None, None),
        "--seed": (None, None),
        "--shards -k": (None, None),
        "--transitions": (None, None),
        "--window -w": (None, None),
    },
    "bench-elastic": {
        "--indexes -n": (None, None),
        "--out": ("BENCH_elastic.json", None),
        "--probes": (None, None),
        "--quick": (False, None),
        "--scheme": (None, None),
        "--seed": (None, None),
        "--spike-factor": (None, None),
        "--transitions": (None, None),
        "--window -w": (None, None),
    },
    "bench-frontend": {
        "--adaptive": (None, None),
        "--multipliers": (None, None),
        "--out": ("BENCH_frontend.json", None),
        "--queue-policy": (None, ("fifo", "drr")),
        "--quick": (False, None),
        "--seed": (None, None),
        "--service-us": (None, None),
        "--step-duration": (None, None),
        "--users": (None, None),
    },
    "bench-overlap": {
        "--arrival-stretch": (None, None),
        "--devices -k": (None, None),
        "--indexes -n": (None, None),
        "--out": ("BENCH_overlap.json", None),
        "--probes": (None, None),
        "--quick": (False, None),
        "--scans": (None, None),
        "--schemes": (None, None),
        "--seed": (None, None),
        "--transitions": (None, None),
        "--window -w": (None, None),
    },
    "bench-resilience": {
        "--frontends": (None, None),
        "--out": ("BENCH_resilience.json", None),
        "--quick": (False, None),
        "--seed": (None, None),
        "--seeds": (None, None),
    },
    "bench-serving": {
        "--batch-sizes": (None, None),
        "--cache-ratio": (None, None),
        "--indexes -n": (None, None),
        "--out": ("BENCH_serving.json", None),
        "--probes": (None, None),
        "--quick": (False, None),
        "--scans": (None, None),
        "--seed": (None, None),
        "--window -w": (None, None),
    },
    "calibrate": {
        "--cluster-days": (1, None),
        "--memory-mb": (None, None),
        "--scale-factor": (1.0, None),
    },
    "chaos-soak": {
        "--burst-days": (None, None),
        "--indexes -n": (None, None),
        "--kill-points": (None, ("transition", "serving", "rebuild")),
        "--kills-per-shard": (None, None),
        "--out": ("BENCH_chaos.json", None),
        "--quick": (False, None),
        "--replication -r": (None, None),
        "--scheme": (None, None),
        "--seeds": (None, None),
        "--shards -k": (None, None),
        "--transient-rate": (None, None),
        "--transitions": (None, None),
        "--window -w": (None, None),
    },
    "crash-test": {
        "--cycles": (3, None),
        "--indexes -n": (3, None),
        "--io-samples": (0, None),
        "--no-rebalance": (False, None),
        "--seed": (None, None),
        "--technique": (
            "simple_shadow",
            ("in_place", "simple_shadow", "packed_shadow"),
        ),
        "--verbose -v": (False, None),
        "--window -w": (6, None),
        "schemes": (None, None),
    },
    "figure": {
        "name": (
            None,
            ("fig11", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"),
        ),
    },
    "latency": {
        "--indexes -n": (2, None),
        "--queries": (5000, None),
        "--scenario": ("SCAM", ("SCAM", "TPC-D", "WSE")),
        "--seed": (None, None),
        "--technique": (
            "in_place",
            ("in_place", "simple_shadow", "packed_shadow"),
        ),
        "scheme": (None, None),
    },
    "loadgen": {
        "--arrivals": (None, ("poisson", "diurnal")),
        "--connect": (None, None),
        "--deadline-ms": (None, None),
        "--duration": (None, None),
        "--json": (False, None),
        "--policy": ("shed", ("shed", "queue")),
        "--qps": (None, None),
        "--seed": (None, None),
        "--tenant-rate": (None, None),
        "--tenants": (None, None),
        "--users": (None, None),
    },
    "schemes": {},
    "sensitivity": {
        "--indexes -n": (4, None),
        "--scenario": ("SCAM", ("SCAM", "TPC-D", "WSE")),
        "--technique": (
            "simple_shadow",
            ("in_place", "simple_shadow", "packed_shadow"),
        ),
        "scheme": (None, None),
    },
    "serve": {
        "--concurrency": (None, None),
        "--host": ("127.0.0.1", None),
        "--policy": ("shed", ("shed", "queue")),
        "--port": (0, None),
        "--queue-depth": (None, None),
        "--scheme": (None, None),
        "--seed": (None, None),
        "--shards": (None, None),
        "--tenant-rate": (None, None),
        "--window -w": (None, None),
    },
    "topology-chaos": {
        "--faults": (None, ("crash", "kill", "space")),
        "--kinds": (None, ("split", "merge")),
        "--out": ("BENCH_topology_chaos.json", None),
        "--quick": (False, None),
        "--scheme": (None, None),
        "--seeds": (None, None),
    },
    "trace": {
        "--days -d": (None, None),
        "--indexes -n": (2, None),
        "--window -w": (10, None),
        "scheme": (None, None),
    },
}


def _surface(parser):
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {
            " ".join(a.option_strings) or a.dest: (
                a.default, tuple(a.choices) if a.choices else None
            )
            for a in command._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, command in sub.choices.items()
    }


def test_options_defaults_and_choices_are_pinned():
    assert _surface(build_parser()) == SURFACE


def test_every_bench_has_a_subcommand_and_every_bench_command_a_bench():
    assert sorted(name for name, _, _ in _BENCHES.values()) == sorted(NAMES)
    assert set(_BENCHES) <= set(SURFACE)
    for command, (name, _, _) in _BENCHES.items():
        assert bench(name).name == name
        assert SURFACE[command]["--out"][0] == f"BENCH_{name}.json"


def _bench_flags():
    """Yield ``(command, bench name, argparse action)`` per bench flag."""
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    for command, (name, _, flags) in _BENCHES.items():
        declared = {names[0] for names, _ in flags}
        for action in sub.choices[command]._actions:
            if action.option_strings and action.option_strings[0] in declared:
                yield command, name, action


def test_every_bench_flag_left_unset_leaves_the_config_alone():
    # A flag's default is None, so an unset flag overrides nothing and
    # the config's own value stands.
    defaults = {
        (command, action.option_strings[0]): action.default
        for command, _, action in _bench_flags()
    }
    assert defaults and all(v is None for v in defaults.values()), {
        k: v for k, v in defaults.items() if v is not None
    }


def test_every_bench_flag_sets_one_field_of_its_config():
    # The runner drops a dest that names no field, so this is what
    # catches a flag that does nothing.  A config's own field wins over
    # its groups'; otherwise exactly one group may own the dest.
    for command, name, action in _bench_flags():
        config = bench(name).config()
        where = owner(config, action.dest)
        assert where is not None, (command, action.dest)
        if where:
            groups = [
                f.name for f in fields(config)
                if is_dataclass(getattr(config, f.name))
                and action.dest in {g.name for g in fields(getattr(config, f.name))}
            ]
            assert groups == [where], (command, action.dest, groups)

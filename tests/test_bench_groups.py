"""The bench input side: four groups own the shared fields, and only they.

Each group checks its own fields; :func:`~repro.bench.harness.override`
sets a field wherever it lives; and no bench config declares a field a
group or one of ``repro.cluster``'s configs already owns.
"""

import ast
from dataclasses import dataclass, fields, replace
from pathlib import Path

import pytest

from repro.bench import harness
from repro.bench.harness import IntCorpus, QueryStream, TextCorpus, Wave, override
from repro.bench.advisor import AdvisorBenchConfig
from repro.bench.chaos import ChaosSoakConfig
from repro.bench.cluster import ClusterBenchConfig
from repro.bench.elastic import ElasticBenchConfig
from repro.bench.overlap import OverlapBenchConfig
from repro.bench.serving import ServingBenchConfig
from repro.bench.topology_chaos import TopologyChaosConfig
from repro.errors import SchemeError

BENCH_DIR = Path(harness.__file__).parent

#: Fields a group, ``ClusterConfig``, ``ElasticConfig``, ``BreakerConfig``
#: or ``RetryPolicy`` owns, under the names bench configs copied them as.
OWNED = {
    # Wave
    "window", "n_indexes", "scheme",
    # TextCorpus, IntCorpus
    "docs_per_day", "words_per_doc", "zipf_s",
    "domain", "records_per_day", "record_bytes",
    # QueryStream
    "probes_per_day", "scans_per_day",
    # ClusterConfig
    "n_shards", "replication", "partitioner", "range_splits",
    "maintenance", "max_concurrent_frac", "arrival_stretch",
    # ElasticConfig
    "split_load_factor", "merge_load_factor", "max_shards", "cooldown_days",
    # BreakerConfig and RetryPolicy, as the chaos soak spelled them
    "breaker_threshold", "breaker_cooldown_s", "retry_max_attempts",
}


def _config_fields():
    """Yield ``(module, class, field)`` for every ``*Config`` in bench/."""
    for path in sorted(BENCH_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        yield path.name, node.name, stmt.target.id


def test_no_bench_config_copies_a_field_a_group_owns():
    copies = [
        entry for entry in _config_fields() if entry[2] in OWNED | {"quick"}
    ]
    assert copies == []


def test_the_scan_sees_every_bench_config():
    classes = {(module, cls) for module, cls, _ in _config_fields()}
    assert len(classes) == len(harness.NAMES)


class TestGroupsCheckThemselves:
    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: Wave(window=0, n_indexes=1, scheme="DEL"), "window"),
            (lambda: Wave(window=3, n_indexes=0, scheme="DEL"), "n_indexes"),
            (lambda: TextCorpus(docs_per_day=0, words_per_doc=4, zipf_s=1.0),
             "docs_per_day"),
            (lambda: TextCorpus(docs_per_day=4, words_per_doc=0, zipf_s=1.0),
             "words_per_doc"),
            (lambda: IntCorpus(domain=0, records_per_day=1, record_bytes=1),
             "domain"),
            (lambda: IntCorpus(domain=1, records_per_day=0, record_bytes=1),
             "records_per_day"),
            (lambda: IntCorpus(domain=1, records_per_day=1, record_bytes=0),
             "record_bytes"),
            (lambda: QueryStream(probes_per_day=0, scans_per_day=0),
             "probes_per_day"),
            (lambda: QueryStream(probes_per_day=1, scans_per_day=-1),
             "scans_per_day"),
        ],
    )
    def test_a_field_out_of_range_is_named(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    def test_a_scan_free_stream_is_legal(self):
        assert QueryStream(probes_per_day=1, scans_per_day=0).scans_per_day == 0

    def test_an_unknown_scheme_is_refused(self):
        with pytest.raises(KeyError, match="NOPE"):
            Wave(window=3, n_indexes=1, scheme="NOPE")

    @pytest.mark.parametrize(
        "window,n_indexes,scheme", [(2, 5, "DEL"), (6, 1, "WATA*")]
    )
    def test_an_impossible_wave_is_refused(self, window, n_indexes, scheme):
        with pytest.raises(SchemeError):
            Wave(window=window, n_indexes=n_indexes, scheme=scheme)

    def test_the_factory_builds_a_fresh_scheme_each_call(self):
        factory = Wave(window=6, n_indexes=3, scheme="REINDEX").scheme_factory()
        first, second = factory(), factory()
        assert first is not second
        assert (first.window, first.n_indexes) == (6, 3)


class TestOverride:
    def test_a_field_reaches_the_group_that_owns_it(self):
        base = ClusterBenchConfig()
        config = override(base, window=8, replication=2, transitions=3)
        assert config.wave == replace(base.wave, window=8)
        assert config.cluster == replace(base.cluster, replication=2)
        assert config.transitions == 3
        assert config.corpus is base.corpus

    def test_an_overridden_group_checks_itself(self):
        with pytest.raises(ValueError, match="probes_per_day"):
            override(ClusterBenchConfig(), probes_per_day=0)

    def test_an_unknown_field_is_refused(self):
        with pytest.raises(TypeError, match="nope"):
            override(ClusterBenchConfig(), nope=1)

    def test_owner_names_where_a_field_lives(self):
        config = ClusterBenchConfig()
        assert harness.owner(config, "transitions") == ""
        assert harness.owner(config, "scheme") == "wave"
        assert harness.owner(config, "max_concurrent_frac") == "cluster"
        assert harness.owner(config, "quick") is None

    def test_a_group_named_whole_and_by_field_is_refused(self):
        base = ClusterBenchConfig()
        with pytest.raises(TypeError, match="cluster"):
            override(base, cluster=base.cluster, replication=2)

    def test_a_name_two_groups_share_is_refused(self):
        @dataclass(frozen=True)
        class TwoStreams:
            day: QueryStream = QueryStream(probes_per_day=1, scans_per_day=0)
            night: QueryStream = QueryStream(probes_per_day=2, scans_per_day=0)

        with pytest.raises(TypeError, match="day and night"):
            override(TwoStreams(), probes_per_day=3)


#: A field a bench sets itself, or holds constant, per bench config.
FIXED = [
    (ServingBenchConfig, "cluster", "page_cache_bytes", 1 << 20),
    (OverlapBenchConfig, "wave", "scheme", "REINDEX"),
    (OverlapBenchConfig, "cluster", "devices_per_replica", 2),
    (ClusterBenchConfig, "cluster", "n_shards", 4),
    (ClusterBenchConfig, "cluster", "maintenance", "lockstep"),
    (ChaosSoakConfig, "retry", "base_delay_s", 0.5),
    (ElasticBenchConfig, "elastic", "autoscale", False),
    (ElasticBenchConfig, "cluster", "partitioner", "hash"),
    (AdvisorBenchConfig, "advisor", "divergent", True),
    (TopologyChaosConfig, "queries", "scans_per_day", 2),
]


class TestFixedFields:
    @pytest.mark.parametrize("config,where,name,value", FIXED)
    def test_override_refuses_a_fixed_field(self, config, where, name, value):
        with pytest.raises(TypeError, match=name):
            override(config(), **{name: value})

    @pytest.mark.parametrize("config,where,name,value", FIXED)
    def test_a_config_holding_a_fixed_field_is_refused(
        self, config, where, name, value
    ):
        group = replace(getattr(config(), where), **{name: value})
        with pytest.raises(ValueError, match=f"{where}.{name}"):
            config(**{where: group})

    @pytest.mark.parametrize("name", harness.NAMES)
    def test_every_settable_name_is_a_field_of_its_group(self, name):
        config = harness.bench(name).config()
        for where, names in getattr(config, "settable", {}).items():
            assert set(names) <= {f.name for f in fields(getattr(config, where))}

"""One harness for every bench.

Each bench module declares one :class:`Bench` record, ``BENCH``: its
report name, config class, ``quick_config``, ``run``,
``render_summary``, report :class:`Schema`, and its claim as a predicate
over the report.  ``repro``'s one bench runner (``repro.cli``) runs a
bench through :meth:`Bench.execute`, :meth:`Bench.validate` is the
schema check every ``run`` applies before returning its report, and
:func:`write_report` writes every report.

The input side is four frozen groups a bench config holds instead of
copying their fields: :class:`Wave` (*W*, *n*, scheme), :class:`TextCorpus`
(the Netnews corpus), :class:`IntCorpus` (uniform integer keys) and
:class:`QueryStream` (probes and scans per day).  Each checks its own
fields, and :func:`build_world` turns a wave, a store, a query workload and
the cluster's own :class:`~repro.cluster.ClusterConfig` into the
simulation, so every configuration a bench compares is fed the same
inputs the same way.  :func:`override` sets a field by name wherever it
lives, in the config or in one of its groups; a bench that sets some
fields of a group itself, or holds them constant, lists the others in
``settable``, and :func:`check_fixed` refuses a value for the rest.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import partial
from importlib import import_module
from pathlib import Path
from typing import Any, Callable

from ..cluster.sim import ClusterConfig, ClusterSimulation
from ..core.records import RecordStore
from ..core.schemes import WaveScheme, scheme_by_name
from ..core.timeset import validate_window
from ..sim.querygen import QueryWorkload, uniform_key_picker, zipf_value_picker
from ..storage.disk import SimulatedDisk
from ..workloads.keys import build_int_store
from ..workloads.text import TextWorkloadConfig, build_store
from ..workloads.zipf import heaps_vocabulary

#: Schema version stamped into every bench report.
SCHEMA_VERSION = 1

#: Every bench by report name; ``repro.bench.<name>.BENCH`` declares it.
NAMES = (
    "serving",
    "overlap",
    "cluster",
    "chaos",
    "elastic",
    "advisor",
    "topology_chaos",
    "frontend",
    "resilience",
)

Report = dict[str, Any]


@dataclass(frozen=True)
class Schema:
    """The shape of one bench's report.

    Every report carries ``bench`` and ``schema_version`` plus ``keys``.
    ``rows`` names its list of per-run entries, which must be non-empty,
    each entry carrying ``row_keys``; ``headline`` lists the keys of its
    headline block.
    """

    keys: tuple[str, ...]
    rows: str | None = None
    row_keys: tuple[str, ...] = ()
    headline: tuple[str, ...] = ()


@dataclass(frozen=True)
class Bench:
    """What one bench declares about itself."""

    name: str
    config: type
    quick_config: Callable[[Any], Any]
    run: Callable[[Any], Report]
    render_summary: Callable[[Report], str]
    schema: Schema
    #: The bench's claim; a run whose report fails it exits 1.
    claim: Callable[[Report], bool] | None = None
    #: Domain invariants beyond the schema; raises ``ValueError``.
    check: Callable[[Report], None] | None = None

    def validate(self, report: Report) -> Report:
        """Return ``report``; raise ``ValueError`` unless it has this shape."""
        schema = self.schema
        for key in ("bench", "schema_version", *schema.keys):
            if key not in report:
                raise ValueError(f"{self.name} report missing key {key!r}")
        if report["bench"] != self.name:
            raise ValueError(f"unexpected bench {report['bench']!r}")
        if schema.rows is not None:
            if not report[schema.rows]:
                raise ValueError(f"{self.name} report has no {schema.rows} entries")
            for row in report[schema.rows]:
                for key in schema.row_keys:
                    if key not in row:
                        raise ValueError(
                            f"{schema.rows} entry missing key {key!r}: {row}"
                        )
        for key in schema.headline:
            if key not in report["headline"]:
                raise ValueError(f"headline missing {key!r}")
        if self.check is not None:
            self.check(report)
        return report

    def execute(self, *, quick: bool = False, **overrides: Any) -> Report:
        """Run the bench: its defaults, then ``quick_config`` when
        ``quick``, then ``overrides`` (by field name, see :func:`override`).

        The report's input block (``workload``, or ``config``) ends with
        ``quick``: whether ``quick_config`` was applied.
        """
        config = self.config()
        if quick:
            config = self.quick_config(config)
        report = self.run(override(config, **overrides))
        report["workload" if "workload" in report else "config"]["quick"] = quick
        return report


def bench(name: str) -> Bench:
    """Return the bench whose reports are named ``name``."""
    if name not in NAMES:
        raise KeyError(f"unknown bench {name!r}")
    return import_module(f"{__package__}.{name}").BENCH


def claim_passes(report: Report) -> bool:
    """The claim of a bench whose headline carries a ``claim`` block."""
    return report["headline"]["claim"]["pass"]


def ratio(a: float | None, b: float | None) -> float | None:
    """Return ``a / b``, or ``None`` when either is missing or ``b <= 0``."""
    if a is None or b is None or b <= 0:
        return None
    return a / b


def write_report(report: Report, path: str | Path) -> Path:
    """Write ``report`` as pretty JSON; return the path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# The input side: four groups, one world builder, one override
# ----------------------------------------------------------------------


def _at_least(group: object, name: str, floor: int) -> None:
    value = getattr(group, name)
    if value < floor:
        raise ValueError(f"{name} must be >= {floor}, got {value}")


@dataclass(frozen=True)
class Wave:
    """The wave every shard runs: *W* days over *n* constituents under
    ``scheme``, a legal combination of the three."""

    window: int
    n_indexes: int
    scheme: str

    def __post_init__(self) -> None:
        _at_least(self, "window", 1)
        _at_least(self, "n_indexes", 1)
        scheme_cls = scheme_by_name(self.scheme)  # KeyError on unknowns
        validate_window(
            self.window, self.n_indexes, minimum_indexes=scheme_cls.min_indexes
        )

    def scheme_factory(self) -> Callable[[], WaveScheme]:
        """Return the factory that gives each replica its own scheme."""
        return partial(scheme_by_name(self.scheme), self.window, self.n_indexes)


@dataclass(frozen=True)
class TextCorpus:
    """The Netnews corpus: ``docs_per_day`` documents of ``words_per_doc``
    Zipf(``zipf_s``) words over a Heaps-law vocabulary."""

    docs_per_day: int
    words_per_doc: int
    zipf_s: float

    def __post_init__(self) -> None:
        _at_least(self, "docs_per_day", 1)
        _at_least(self, "words_per_doc", 1)

    @property
    def vocabulary(self) -> int:
        """Return the lexicon size, Heaps' law over one day's words."""
        return heaps_vocabulary(self.docs_per_day * self.words_per_doc)

    def store(self, last_day: int, seed: int) -> RecordStore:
        """Return the store of days ``1..last_day``."""
        return build_store(
            last_day,
            TextWorkloadConfig(
                docs_per_day=self.docs_per_day,
                words_per_doc=self.words_per_doc,
                vocabulary=self.vocabulary,
                zipf_s=self.zipf_s,
                seed=seed,
            ),
        )

    def picker(self) -> Callable[[random.Random], str]:
        """Return the value picker that draws words as the corpus does."""
        return zipf_value_picker(self.vocabulary, self.zipf_s)


@dataclass(frozen=True)
class IntCorpus:
    """``records_per_day`` records a day of ``record_bytes`` bytes, each
    holding one key drawn uniformly from ``1..domain``."""

    domain: int
    records_per_day: int
    record_bytes: int

    def __post_init__(self) -> None:
        _at_least(self, "domain", 1)
        _at_least(self, "records_per_day", 1)
        _at_least(self, "record_bytes", 1)

    def store(self, last_day: int, seed: int, *, first_id: int = 0) -> RecordStore:
        """Return the store of days ``1..last_day``."""
        return build_int_store(
            seed,
            last_day,
            self.records_per_day,
            self.domain,
            self.record_bytes,
            first_id=first_id,
        )

    def picker(self) -> Callable[[random.Random], int]:
        """Return the value picker that draws keys as the corpus does."""
        return uniform_key_picker(self.domain)


@dataclass(frozen=True)
class QueryStream:
    """The daily query stream: ``probes_per_day`` probes and
    ``scans_per_day`` window scans."""

    probes_per_day: int
    scans_per_day: int

    def __post_init__(self) -> None:
        _at_least(self, "probes_per_day", 1)
        _at_least(self, "scans_per_day", 0)

    def workload(
        self, picker: Callable[[random.Random], Any], seed: int
    ) -> QueryWorkload:
        """Return the stream drawing its probed values with ``picker``."""
        return QueryWorkload(
            probes_per_day=self.probes_per_day,
            scans_per_day=self.scans_per_day,
            value_picker=picker,
            seed=seed,
        )


def build_world(
    wave: Wave,
    store: RecordStore,
    cluster: ClusterConfig,
    *,
    queries: QueryWorkload | None = None,
    device_factory: Callable[[int], SimulatedDisk] | None = None,
) -> ClusterSimulation:
    """Return the simulation of ``cluster`` running ``wave`` over ``store``
    and serving ``queries``: the one construction every bench makes."""
    return ClusterSimulation(
        wave.scheme_factory(),
        store,
        queries=queries,
        cluster=cluster,
        device_factory=device_factory,
    )


def check_fixed(config: Any) -> None:
    """Raise ``ValueError`` if a group ``config.settable`` lists differs
    from the config's default in a field not listed with it.

    A bench lists a group in ``settable``, with the fields a caller may
    set, when it sets the group's other fields itself (a sweep) or holds
    them constant; so none of those can be set to no effect.
    """
    defaults = {f.name: f.default for f in fields(config)}
    for where, names in config.settable.items():
        held, default = getattr(config, where), defaults[where]
        for f in fields(held):
            value, fixed = getattr(held, f.name), getattr(default, f.name)
            if f.name not in names and value != fixed:
                raise ValueError(
                    f"{where}.{f.name} is fixed at {fixed!r} in "
                    f"{type(config).__name__}, got {value!r}"
                )


def owner(config: Any, name: str) -> str | None:
    """Return where a caller sets field ``name`` of ``config``: ``""`` for
    the config's own field, the group's field name for a field of one of
    its groups that ``config.settable`` leaves settable (every field of a
    group it does not list), ``None`` for neither.

    Raises ``TypeError`` when more than one group has a settable ``name``.
    """
    if name in {f.name for f in fields(config)}:
        return ""
    limits = getattr(config, "settable", {})
    found = [
        f.name
        for f in fields(config)
        if is_dataclass(group := getattr(config, f.name))
        and name in limits.get(f.name, [g.name for g in fields(group)])
    ]
    if len(found) > 1:
        raise TypeError(
            f"{type(config).__name__}: {name!r} is a field of {' and '.join(found)}"
        )
    return found[0] if found else None


def override(config: Any, **values: Any) -> Any:
    """Return ``config`` with each named field set, wherever it lives (see
    :func:`owner`); every group touched is rebuilt, so it checks itself.

    Raises ``TypeError`` for a name no caller may set, and for a group
    named both whole and through one of its fields.
    """
    own: dict[str, Any] = {}
    groups: dict[str, dict[str, Any]] = {}
    for name, value in values.items():
        where = owner(config, name)
        if where is None:
            raise TypeError(f"{type(config).__name__} has no settable field {name!r}")
        if where:
            groups.setdefault(where, {})[name] = value
        else:
            own[name] = value
    for where, changes in groups.items():
        if where in own:
            raise TypeError(
                f"{type(config).__name__}: {where!r} is set whole and through "
                f"{', '.join(sorted(changes))}"
            )
        own[where] = replace(getattr(config, where), **changes)
    return replace(config, **own)

"""One harness for every bench.

Each bench module declares one :class:`Bench` record, ``BENCH``: its
report name, config class, ``quick_config``, ``run``,
``render_summary``, report :class:`Schema`, and its claim as a predicate
over the report.  ``repro``'s one bench runner (``repro.cli``) reads
those records, :meth:`Bench.validate` is the schema check every ``run``
applies before returning its report, and :func:`write_report` writes
every report.  The module also holds the Netnews corpus recipe the text
benches share, so every configuration they compare is fed the same
inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Any, Callable

from ..core.records import RecordStore
from ..sim.querygen import QueryWorkload, zipf_value_picker
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
    headline block.  A ``machine_dependent`` report holds wall-clock
    numbers and must say so, so that nothing byte-compares it.
    """

    keys: tuple[str, ...]
    rows: str | None = None
    row_keys: tuple[str, ...] = ()
    headline: tuple[str, ...] = ()
    machine_dependent: bool = False


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
        if schema.machine_dependent and report.get("machine_dependent") is not True:
            raise ValueError(
                f"{self.name} report must be marked machine_dependent: "
                "its numbers are wall-clock"
            )
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


def bench(name: str) -> Bench:
    """Return the bench whose reports are named ``name``."""
    if name not in NAMES:
        raise KeyError(f"unknown bench {name!r}")
    return import_module(f"{__package__}.{name}").BENCH


def claim_passes(report: Report) -> bool:
    """The claim of a bench whose headline carries a ``claim`` block."""
    return report["headline"]["claim"]["pass"]


def write_report(report: Report, path: str | Path) -> Path:
    """Write ``report`` as pretty JSON; return the path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def text_corpus(config: Any, last_day: int, seed: int) -> tuple[RecordStore, int]:
    """Return the Netnews store of days ``1..last_day`` and its vocabulary.

    ``config`` carries ``docs_per_day``, ``words_per_doc`` and ``zipf_s``.
    """
    vocabulary = heaps_vocabulary(config.docs_per_day * config.words_per_doc)
    text = TextWorkloadConfig(
        docs_per_day=config.docs_per_day,
        words_per_doc=config.words_per_doc,
        vocabulary=vocabulary,
        zipf_s=config.zipf_s,
        seed=seed,
    )
    return build_store(last_day, text), vocabulary


def zipf_queries(config: Any, vocabulary: int, seed: int) -> QueryWorkload:
    """Return the daily query stream over :func:`text_corpus`'s words.

    ``config`` carries ``probes_per_day``, ``scans_per_day`` and ``zipf_s``.
    """
    return QueryWorkload(
        probes_per_day=config.probes_per_day,
        scans_per_day=config.scans_per_day,
        value_picker=zipf_value_picker(vocabulary, config.zipf_s),
        seed=seed,
    )

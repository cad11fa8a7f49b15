"""Shared fixtures for the wave-index test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.core import records
from repro.core.records import PostingRun, Record, RecordStore
from repro.index.btree import BPlusTreeDirectory
from repro.index.config import IndexConfig
from repro.storage.disk import SimulatedDisk

# `pytest --hypothesis-profile nightly` (nightly.yml): twenty times the
# default depth for the properties that do not pin their own max_examples.
settings.register_profile("nightly", max_examples=2000, deadline=None)


def depth(tier1: int) -> int:
    """Examples for a property that pins a small tier-1 depth.

    ``tier1`` under hypothesis' default profile; the loaded profile's
    depth when that is deeper (``nightly``).  ``max(tier1,
    settings().max_examples)`` would run the default's 100 in tier-1.
    """
    loaded = settings().max_examples
    return loaded if loaded > settings.get_profile("default").max_examples else tier1


@pytest.fixture
def disk() -> SimulatedDisk:
    """A fresh unbounded simulated disk with Table-12 hardware."""
    return SimulatedDisk()


@pytest.fixture
def config() -> IndexConfig:
    """Default index configuration (hash directory, g = 2)."""
    return IndexConfig()


@pytest.fixture
def btree_config() -> IndexConfig:
    """Index configuration with a small-order B+Tree directory."""
    return IndexConfig(directory_factory=lambda: BPlusTreeDirectory(order=4))


def make_store(
    num_days: int,
    *,
    seed: int = 11,
    values: str = "abcdefgh",
    min_records: int = 2,
    max_records: int = 6,
) -> RecordStore:
    """A deterministic small store: a few multi-valued records per day."""
    rng = random.Random(seed)
    store = RecordStore()
    rid = 0
    for day in range(1, num_days + 1):
        records = []
        for _ in range(rng.randint(min_records, max_records)):
            rid += 1
            vals = tuple(rng.sample(values, rng.randint(1, 3)))
            records.append(Record(rid, day, vals, nbytes=50))
        store.add_records(day, records)
    return store


@pytest.fixture
def store30() -> RecordStore:
    """Thirty days of small random batches."""
    return make_store(30)


@pytest.fixture
def posted(monkeypatch) -> list:
    """The batches posted (one per ``PostingRun`` constructed), in order.

    A shard view's cut of a run (``PostingRun.cut``) posts nothing and is
    not counted.
    """
    batches = []

    class CountedRun(PostingRun):
        __slots__ = ()

        def __init__(self, batch):
            batches.append(batch)
            super().__init__(batch)

    monkeypatch.setattr(records, "PostingRun", CountedRun)
    return batches

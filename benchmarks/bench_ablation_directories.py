"""Ablation: B+Tree versus hash directory.

The paper treats the directory as a memory-resident black box (B+Tree or
hash table, Section 2).  This bench exercises both implementations on the
same keys: bulk load, point lookups, and (B+Tree only) ordered range
iteration — the one operation hashing cannot provide.
"""

import random

import pytest

from repro.index.btree import BPlusTreeDirectory
from repro.index.hashdir import HashDirectory

N_KEYS = 5_000
rng = random.Random(42)
KEYS = rng.sample(range(N_KEYS * 10), N_KEYS)
LOOKUPS = [rng.choice(KEYS) for _ in range(1_000)]


def _loaded(directory):
    for key in KEYS:
        directory.put(key, key)
    return directory


@pytest.mark.parametrize(
    "factory",
    [lambda: BPlusTreeDirectory(order=64), HashDirectory],
    ids=["btree", "hash"],
)
def test_directory_bulk_load(factory):
    result = _loaded(factory())
    assert len(result) == N_KEYS


@pytest.mark.parametrize(
    "factory",
    [lambda: BPlusTreeDirectory(order=64), HashDirectory],
    ids=["btree", "hash"],
)
def test_directory_point_lookups(factory):
    directory = _loaded(factory())

    def lookups():
        hits = 0
        for key in LOOKUPS:
            if directory.get(key) is not None:
                hits += 1
        return hits

    assert lookups() == len(LOOKUPS)


def test_btree_range_scan():
    tree = _loaded(BPlusTreeDirectory(order=64))
    lo = sorted(KEYS)[N_KEYS // 4]
    hi = sorted(KEYS)[3 * N_KEYS // 4]

    def scan():
        return sum(1 for _ in tree.range_items(lo, hi))

    count = scan()
    assert count == sum(1 for k in KEYS if lo <= k < hi)

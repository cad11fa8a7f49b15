"""The ingest path as it was: a fresh ``str`` a token, a CDF a sampler,
a narrowed ``Record`` a shard.

How a corpus reached the shards before a word became one object: the
generator formatted ``f"w{r}"`` for every token it drew, every
``ZipfSampler`` built its own cumulative distribution and drew through
one ``sample()`` call a rank, and ``partition_store`` gathered a record's
values into one ``setdefault`` list a shard, a token at a time.  Kept
word for word; the live path must produce ``==`` batches, rank streams
and shard stores (``tests/workloads/test_ingest_equivalence.py``).

Then a shard's store became a view of the source store
(``repro.cluster.partitioner.ShardView``), and the ``partition_store``
that laid down a second ``Record`` for every record a shard owns a value
of is :func:`partition_store_copies` here: what a view materialises,
posts and is charged for must equal what the copies hold.

:func:`corpus_digest` is the one number a corpus is pinned by: sha-256
over every ``(record_id, day, values, nbytes, info)`` in day, then
record, order.
"""

import bisect
import hashlib
import math
import random

from repro.core.records import DayBatch, Record, RecordStore
from repro.workloads.text import BYTES_PER_DOC


class PerDrawZipfSampler:
    """``ZipfSampler`` with a private CDF and one method call a draw."""

    def __init__(self, vocabulary, s=1.0, seed=0):
        self.vocabulary = vocabulary
        self.s = s
        self._rng = random.Random(seed)
        self._cdf = self._build_cdf(vocabulary, s)

    @staticmethod
    def _build_cdf(vocabulary, s):
        weights = [1.0 / (rank**s) for rank in range(1, vocabulary + 1)]
        total = math.fsum(weights)
        cdf = []
        acc = 0.0
        for w in weights:
            acc += w
            cdf.append(acc / total)
        cdf[-1] = 1.0
        return cdf

    def sample(self):
        u = self._rng.random()
        return bisect.bisect_left(self._cdf, u) + 1

    def sample_many(self, count):
        return [self.sample() for _ in range(count)]

    def probability(self, rank):
        lo = self._cdf[rank - 2] if rank >= 2 else 0.0
        return self._cdf[rank - 1] - lo


class PerTokenGenerator:
    """``NetnewsGenerator.generate_day`` formatting a ``str`` a token.

    Wraps a live generator for its config and volume rules only; the
    record ids are this object's own, starting at 1 like the live one's.
    """

    def __init__(self, generator):
        self.config = generator.config
        self.docs_for_day = generator.docs_for_day
        self._next_record_id = 1

    def generate_day(self, day):
        cfg = self.config
        sampler = PerDrawZipfSampler(
            cfg.vocabulary, cfg.zipf_s, seed=hash((cfg.seed, day)) & 0x7FFFFFFF
        )
        records = []
        for _ in range(self.docs_for_day(day)):
            ranks = sampler.sample_many(cfg.words_per_doc)
            words = tuple(sorted({f"w{r}" for r in ranks}))
            records.append(
                Record(
                    record_id=self._next_record_id,
                    day=day,
                    values=words,
                    nbytes=BYTES_PER_DOC,
                )
            )
            self._next_record_id += 1
        return DayBatch(day=day, records=records)


def partition_store_per_token(store, partitioner):
    """``partition_store`` with a ``setdefault`` list a token."""
    if partitioner.n_shards == 1:
        return [store]
    shards = [RecordStore() for _ in range(partitioner.n_shards)]
    for day in store.days:
        per_shard = [[] for _ in shards]
        for record in store.batch(day).records:
            owned = {}
            shard_ids = partitioner.shards_for_many(record.values)
            for value, shard_id in zip(record.values, shard_ids):
                owned.setdefault(shard_id, []).append(value)
            for shard_id, values in owned.items():
                per_shard[shard_id].append(
                    Record(
                        record_id=record.record_id,
                        day=record.day,
                        values=tuple(values),
                        nbytes=record.nbytes * len(values) // len(record.values),
                        info=record.info,
                    )
                )
        for shard_store, records in zip(shards, per_shard):
            shard_store.add_records(day, records)
    return shards


def partition_store_copies(store, partitioner):
    """``partition_store`` laying down one ``RecordStore`` of narrowed
    records per shard (the memo asked once a record)."""
    if partitioner.n_shards == 1:
        return [store]
    shards = [RecordStore() for _ in range(partitioner.n_shards)]
    shards_for_many = partitioner.shards_for_many
    for day in store.days:
        per_shard = [[] for _ in shards]
        for record in store.batch(day).records:
            values = record.values
            owned = [[] for _ in shards]
            for value, shard_id in zip(values, shards_for_many(values)):
                owned[shard_id].append(value)
            for shard_records, mine in zip(per_shard, owned):
                if mine:
                    share = record.nbytes * len(mine) // len(values)
                    shard_records.append(
                        Record(record.record_id, day, tuple(mine), share, record.info)
                    )
        for shard_store, shard_records in zip(shards, per_shard):
            shard_store.add_records(day, shard_records)
    return shards


def corpus_digest(store):
    """Return the sha-256 hex digest of every record ``store`` holds."""
    digest = hashlib.sha256()
    for day in store.days:
        for r in store.batch(day).records:
            digest.update(
                repr((r.record_id, r.day, r.values, r.nbytes, r.info)).encode()
            )
    return digest.hexdigest()

"""Synthetic Netnews-style document workload (SCAM / WSE case studies).

Stands in for the 1997 Netnews feeds the authors indexed (DESIGN.md
substitution table): each day produces a batch of documents; each document
contributes its distinct words — drawn from a Zipfian lexicon — as search
values.  The knobs mirror what the experiments depend on: documents per day
(possibly varying day to day, as in Figure 2's weekly profile), words per
document, vocabulary size, and Zipf skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Callable, Sequence

from ..core.records import DayBatch, Record, RecordStore
from ..errors import WorkloadError
from .zipf import ZipfSampler

#: Raw record size of one document, charged when scanning source data.
BYTES_PER_DOC = 2_000


@dataclass(frozen=True)
class TextWorkloadConfig:
    """Settings for the synthetic document generator.

    Attributes:
        docs_per_day: Documents generated each day.
        words_per_doc: Word tokens drawn per document (distinct words after
            Zipf collisions will be fewer, as in real text).
        vocabulary: Lexicon size.
        zipf_s: Zipf exponent of the lexicon.
        seed: Master seed; each day derives its own sub-seed so batches are
            reproducible individually.
    """

    docs_per_day: int = 100
    words_per_doc: int = 40
    vocabulary: int = 5_000
    zipf_s: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.docs_per_day < 0:
            raise WorkloadError("docs_per_day must be >= 0")
        if self.words_per_doc < 1:
            raise WorkloadError("words_per_doc must be >= 1")
        if self.vocabulary < 1:
            raise WorkloadError("vocabulary must be >= 1")
        if self.zipf_s < 0:
            raise WorkloadError("zipf_s must be >= 0")


class _Lexicon(dict):
    """``rank -> word``: the one ``str`` a word is, made on first use.

    Every document holding a word refers to that object, so half a million
    tokens keep a few thousand strings and every directory downstream
    finds its keys by identity.  The generator's, not the process's.
    """

    def __missing__(self, rank: int) -> str:
        word = self[rank] = f"w{rank}"
        return word


class NetnewsGenerator:
    """Generates daily batches of Zipfian documents.

    Args:
        config: Generator settings.
        volume: Optional per-day document counts, either a sequence indexed
            by ``day - 1`` or a callable; overrides ``config.docs_per_day``.
            This is how Figure 11's non-uniform Usenet trace feeds in.
    """

    def __init__(
        self,
        config: TextWorkloadConfig | None = None,
        volume: Sequence[int] | Callable[[int], int] | None = None,
    ) -> None:
        self.config = config or TextWorkloadConfig()
        self._volume = volume
        self._next_record_id = 1
        self._lexicon = _Lexicon()

    def docs_for_day(self, day: int) -> int:
        """Return how many documents ``day`` produces."""
        if self._volume is None:
            return self.config.docs_per_day
        if callable(self._volume):
            count = self._volume(day)
        else:
            if not 1 <= day <= len(self._volume):
                raise WorkloadError(
                    f"volume trace covers days 1..{len(self._volume)}, "
                    f"got day {day}"
                )
            count = self._volume[day - 1]
        try:
            count = index(count)
        except TypeError:
            raise WorkloadError(f"non-integer volume {count!r} for day {day}") from None
        if count < 0:
            raise WorkloadError(f"negative volume {count} for day {day}")
        return count

    def generate_day(self, day: int) -> DayBatch:
        """Generate the batch for ``day`` (deterministic per day)."""
        cfg = self.config
        sampler = ZipfSampler(
            cfg.vocabulary, cfg.zipf_s, seed=hash((cfg.seed, day)) & 0x7FFFFFFF
        )
        word_of = self._lexicon.__getitem__
        records = []
        for _ in range(self.docs_for_day(day)):
            ranks = set(sampler.sample_many(cfg.words_per_doc))
            words = tuple(sorted(map(word_of, ranks)))
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

    def populate(self, store: RecordStore, first_day: int, last_day: int) -> None:
        """Generate and add batches for ``first_day .. last_day``."""
        if first_day > last_day:
            raise WorkloadError(
                f"empty day range {first_day}..{last_day}"
            )
        # All generated before any is added: a volume rule failing on day 3
        # leaves neither days 1-2 in the store nor their record ids spent.
        first_id = self._next_record_id
        try:
            batches = [self.generate_day(day) for day in range(first_day, last_day + 1)]
        except BaseException:
            self._next_record_id = first_id
            raise
        for batch in batches:
            store.add_batch(batch)


def build_store(
    num_days: int,
    config: TextWorkloadConfig | None = None,
    volume: Sequence[int] | Callable[[int], int] | None = None,
) -> RecordStore:
    """Convenience: a record store populated with days ``1..num_days``."""
    store = RecordStore()
    NetnewsGenerator(config, volume).populate(store, 1, num_days)
    return store

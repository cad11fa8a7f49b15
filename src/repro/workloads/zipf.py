"""Deterministic Zipf sampling.

The paper's SCAM/WSE case studies index Netnews text whose word frequencies
"exhibit skewed Zipfian behavior" [Zip49] — the reason Table 12 picks
``g = 2.0`` there versus ``g = 1.08`` for TPC-D's uniform keys.  This module
provides a seeded Zipf sampler over a fixed vocabulary, plus a Heaps-law
vocabulary model for experiments where the lexicon grows with volume.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from functools import lru_cache

from ..errors import WorkloadError


@lru_cache(maxsize=8, typed=True)
def _cdf(vocabulary: int, s: float) -> tuple[float, ...]:
    """Return the cumulative distribution of ``P(r) ∝ 1/r^s``, ``r = 1..V``.

    One table for the process: a corpus makes a sampler a day over one
    ``(vocabulary, s)`` and the O(V) build is the same floats every time.
    A tuple, so no sampler can change what the others draw from; typed, so
    ``rank**2`` never answers for ``rank**2.0``.  The last eight stay alive
    at 32 bytes a rank: 136 kB for a perf corpus, 32 MB for a million words.
    """
    weights = [1.0 / (rank**s) for rank in range(1, vocabulary + 1)]
    total = math.fsum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return tuple(cdf)


class ZipfSampler:
    """Samples ranks ``1..vocabulary`` with ``P(r) ∝ 1/r^s``.

    Uses inverse-CDF sampling over the shared cumulative distribution; the
    first sampler of a ``(vocabulary, s)`` pays O(V), each draw O(log V).

    Args:
        vocabulary: Number of distinct ranks.
        s: Zipf exponent (1.0 is classic word-frequency behaviour).
        seed: Seed for the private RNG; two samplers with equal arguments
            produce identical streams.
    """

    def __init__(self, vocabulary: int, s: float = 1.0, seed: int = 0) -> None:
        if vocabulary < 1:
            raise WorkloadError(f"vocabulary must be >= 1, got {vocabulary}")
        if s < 0:
            raise WorkloadError(f"zipf exponent must be >= 0, got {s}")
        self.vocabulary = vocabulary
        self.s = s
        self._rng = random.Random(seed)
        self._cdf = _cdf(vocabulary, s)

    def sample(self) -> int:
        """Return one rank in ``1..vocabulary``."""
        return bisect_left(self._cdf, self._rng.random()) + 1

    def sample_many(self, count: int) -> list[int]:
        """Return ``count`` independent ranks (``count`` :meth:`sample` calls)."""
        if count < 0:
            raise WorkloadError(f"count must be >= 0, got {count}")
        draw, cdf = self._rng.random, self._cdf
        return [bisect_left(cdf, draw()) + 1 for _ in range(count)]

    def probability(self, rank: int) -> float:
        """Return ``P(rank)`` exactly."""
        if not 1 <= rank <= self.vocabulary:
            raise WorkloadError(
                f"rank must be in 1..{self.vocabulary}, got {rank}"
            )
        lo = self._cdf[rank - 2] if rank >= 2 else 0.0
        return self._cdf[rank - 1] - lo


def heaps_vocabulary(tokens: int, k: float = 30.0, beta: float = 0.5) -> int:
    """Return a Heaps-law vocabulary estimate ``V = k · tokens^beta``.

    Used when scaling daily volume (Figure 10's measured variant): a day
    with more text also has more distinct words, sublinearly.
    """
    if tokens < 0:
        raise WorkloadError(f"tokens must be >= 0, got {tokens}")
    if tokens == 0:
        return 1
    return max(1, int(k * tokens**beta))

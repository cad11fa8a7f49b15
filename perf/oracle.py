"""Answer checking against the record store's ground truth.

``RecordStore.brute_probe`` walks every posting of every requested day
(~70 ms for one whole-window probe here), which is too slow to run on
the several hundred answers a round checks.  Probes are therefore
checked against a per-day ``value -> record ids`` map built straight
from the store's batches, and that map is itself compared with
``brute_probe`` on a seeded handful of values per run
(:meth:`Oracle.self_check`).  Scans are compared with ``brute_scan``
directly.  All of it runs outside the timed sections.
"""

from __future__ import annotations

import random
from typing import Any

from repro.core.records import RecordStore
from repro.index.entry import Entry


class Oracle:
    """Checks probe and scan answers; counts what it checked and missed."""

    def __init__(self, store: RecordStore) -> None:
        self.store = store
        self._by_day: dict[int, dict[Any, list[int]]] = {}
        self.checked = 0
        self.mismatches = 0

    def _ids(self, day: int) -> dict[Any, list[int]]:
        ids = self._by_day.get(day)
        if ids is None:
            ids = self._by_day[day] = {}
            for record in self.store.batch(day).records:
                for value in record.values:
                    ids.setdefault(value, []).append(record.record_id)
        return ids

    def forget_before(self, day: int) -> None:
        """Drop the maps of days that slid out of the window."""
        for old in [d for d in self._by_day if d < day]:
            del self._by_day[old]

    def expected_probe(self, value: Any, t1: int, t2: int) -> list[Entry]:
        """Return what ``brute_probe(value, t1, t2)`` returns, faster."""
        return [
            Entry(record_id, day, None)
            for day in range(t1, t2 + 1)
            if self.store.has_day(day)
            for record_id in self._ids(day).get(value, ())
        ]

    def _settle(self, ok: bool) -> bool:
        self.checked += 1
        if not ok:
            self.mismatches += 1
        return ok

    def check_probe(self, spec: tuple[Any, int, int], result: Any) -> bool:
        """Compare one probe answer: entry set, covered and missing days."""
        value, t1, t2 = spec
        expected = self.expected_probe(value, t1, t2)
        return self._settle(
            len(result.entries) == len(expected)
            and set(result.entries) == set(expected)
            and result.covered_days == frozenset(range(t1, t2 + 1))
            and not result.missing_days
        )

    def check_scan(self, spec: tuple[int, int], result: Any) -> bool:
        """Compare one scan answer with ``RecordStore.brute_scan``."""
        t1, t2 = spec
        return self._settle(
            sorted(result.entries) == sorted(self.store.brute_scan(t1, t2))
            and result.covered_days == frozenset(range(t1, t2 + 1))
            and not result.missing_days
        )

    def self_check(self, specs: list[tuple[Any, int, int]], seed: int) -> bool:
        """Compare the fast probe oracle with ``brute_probe`` on 3 specs."""
        rng = random.Random(f"{seed}:self-check")
        ok = True
        for value, t1, t2 in rng.sample(specs, min(3, len(specs))):
            ok &= self._settle(
                self.expected_probe(value, t1, t2)
                == self.store.brute_probe(value, t1, t2)
            )
        return ok

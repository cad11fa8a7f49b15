"""Integer-keyed corpora: one uniform integer key per record."""

from __future__ import annotations

import random

from ..core.records import Record, RecordStore


def build_int_store(
    seed: int,
    last_day: int,
    per_day: int,
    domain: int,
    record_bytes: int = 64,
    *,
    first_id: int = 0,
) -> RecordStore:
    """Return a store of days ``1..last_day``, ``per_day`` records a day.

    Each record holds one key drawn uniformly from ``1..domain`` by one
    ``random.Random(seed)``, in record order; record ids count up from
    ``first_id``.  The keys are what
    :func:`repro.sim.querygen.uniform_key_picker` draws, so probes hit.
    """
    rng = random.Random(seed)
    store = RecordStore()
    record_id = first_id
    for day in range(1, last_day + 1):
        records = []
        for _ in range(per_day):
            records.append(
                Record(
                    record_id=record_id,
                    day=day,
                    values=(rng.randint(1, domain),),
                    nbytes=record_bytes,
                )
            )
            record_id += 1
        store.add_records(day, records)
    return store

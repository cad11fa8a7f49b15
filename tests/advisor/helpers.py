"""Shared fixtures for the advisor suite: integer-keyed stores."""

from __future__ import annotations

from repro.core.records import RecordStore
from repro.workloads.keys import build_int_store


def make_int_store(
    num_days: int,
    *,
    domain: int = 16,
    per_day: int = 8,
    seed: int = 3,
    record_bytes: int = 64,
) -> RecordStore:
    """A deterministic store of single-valued integer-keyed records.

    Matches the key type :func:`repro.sim.querygen.uniform_key_picker`
    draws, so probe workloads actually hit.
    """
    return build_int_store(seed, num_days, per_day, domain, record_bytes)

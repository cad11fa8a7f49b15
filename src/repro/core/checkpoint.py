"""Checkpoint and recovery for wave indexes.

A wave index is fully determined by (a) the scheme's bookkeeping — which
binding covers which days, plus scheme-specific cycle state — and (b) the
record store, which retains the source data.  A checkpoint therefore needs
only the scheme state; recovery rebuilds each binding as a packed index
over its recorded day-set (a REINDEX-style fresh build, which is also the
best-structured form to restart from).

The checkpoint is a plain JSON-serialisable dict::

    checkpoint = take_checkpoint(scheme)
    text = checkpoint_to_json(checkpoint)          # persist anywhere
    ...
    scheme, wave = restore(
        checkpoint_from_json(text), store, disk, config
    )
    executor = PlanExecutor(wave, store, technique)
    executor.execute(scheme.transition_ops(checkpoint_day + 1))
"""

from __future__ import annotations

import json

from ..errors import SchemeError
from ..index.builder import build_index_from_store
from ..index.config import IndexConfig
from ..storage.disk import SimulatedDisk
from .records import RecordStore
from .schemes import scheme_by_name
from .schemes.base import WaveScheme
from .wave import WaveIndex

#: Format marker for forward compatibility.
CHECKPOINT_VERSION = 1


def take_checkpoint(scheme: WaveScheme) -> dict:
    """Snapshot a started scheme's full maintenance state."""
    if scheme.current_day is None:
        raise SchemeError("cannot checkpoint a scheme before start_ops()")
    return {"version": CHECKPOINT_VERSION, "scheme": scheme.get_state()}


def restore_scheme(checkpoint: dict) -> WaveScheme:
    """Reconstruct the scheme (bookkeeping only) from a checkpoint."""
    if checkpoint.get("version") != CHECKPOINT_VERSION:
        raise SchemeError(
            f"unsupported checkpoint version {checkpoint.get('version')!r}"
        )
    state = checkpoint["scheme"]
    scheme_cls = scheme_by_name(state["scheme"])
    scheme = scheme_cls.construct_for_state(state)
    scheme.restore_state(state)
    return scheme


def restore(
    checkpoint: dict,
    store: RecordStore,
    disk: SimulatedDisk,
    config: IndexConfig,
) -> tuple[WaveScheme, WaveIndex]:
    """Rebuild the scheme *and* a queryable wave index from a checkpoint.

    Every binding (constituents and temporaries) is rebuilt as a packed
    index over its checkpointed day-set; the store must still hold batches
    for all of those days.

    Returns:
        ``(scheme, wave)`` ready for the next ``transition_ops`` call.
    """
    scheme = restore_scheme(checkpoint)
    wave = WaveIndex(disk, config, scheme.n_indexes)
    day_sets = checkpoint["scheme"]["days"]
    missing = {
        day
        for days in day_sets.values()
        for day in days
        if not store.has_day(day)
    }
    if missing:
        raise SchemeError(
            f"cannot restore checkpoint: record store has no batch for "
            f"day(s) {sorted(missing)}; the checkpointed bindings need them"
        )
    for name, days in day_sets.items():
        index = build_index_from_store(disk, config, store, days, name=name)
        wave.bind(name, index)
    return scheme, wave


def checkpoint_to_json(checkpoint: dict) -> str:
    """Serialise a checkpoint to a JSON string."""
    return json.dumps(checkpoint, sort_keys=True)


def checkpoint_from_json(text: str) -> dict:
    """Parse a checkpoint produced by :func:`checkpoint_to_json`."""
    checkpoint = json.loads(text)
    if not isinstance(checkpoint, dict) or "scheme" not in checkpoint:
        raise SchemeError("malformed checkpoint")
    return checkpoint

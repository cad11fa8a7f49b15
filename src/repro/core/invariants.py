"""Post-transition consistency checks for wave indexes.

One callable, :func:`check_wave_invariants`, asserting the properties every
completed transition must restore no matter which scheme, technique, or
fault history produced it:

* **No extent leaks** — every live extent on every device is referenced by
  some binding, and per-device live bytes equal the bytes the bindings pin.
* **Byte counters** — each binding's ``allocated_bytes`` (a counter the
  index moves as it takes and gives back extents) equals a recount of the
  extents it references.
* **Allocator consistency** — the free list and live set are internally
  coherent (delegates to the allocator's own checks).
* **Binding consistency** — each binding's directory-level entries agree
  with its declared time-set, and (when a scheme is supplied) the scheme's
  ``Days`` bookkeeping matches the wave index binding-for-binding.

Used by the integration suite after every transition and by the crash-matrix
harness after every recovery.
"""

from __future__ import annotations

from ..storage.disk import SimulatedDisk
from .schemes.base import WaveScheme
from .wave import WaveIndex


class InvariantViolation(AssertionError):
    """A wave-index consistency invariant does not hold."""


def _fail(message: str) -> None:
    raise InvariantViolation(message)


def check_wave_invariants(
    wave: WaveIndex, scheme: WaveScheme | None = None
) -> None:
    """Assert extent, allocator, and binding consistency for ``wave``.

    Raises:
        InvariantViolation: Describing the first violated property.
    """
    disks: set[SimulatedDisk] = {wave.disk}
    referenced: set[int] = set()
    pinned_by_disk: dict[SimulatedDisk, int] = {}
    for name, index in wave.bindings.items():
        disks.add(index.disk)
        pinned = index.allocated_bytes
        pinned_by_disk[index.disk] = pinned_by_disk.get(index.disk, 0) + pinned
        recount = 0
        for extent in index.referenced_extents():
            referenced.add(extent.extent_id)
            recount += extent.size
        if recount != pinned:
            _fail(
                f"byte-counter drift: binding {name} says it pins "
                f"{pinned} bytes but its extents hold {recount}"
            )
        for entry in index.all_entries():
            if entry.day not in index.time_set:
                _fail(
                    f"binding {name} holds an entry for day {entry.day} "
                    f"outside its time-set {sorted(index.time_set)}"
                )

    for disk in disks:
        disk.check_invariants()
        orphans = [
            extent
            for extent in disk.live_extent_list()
            if extent.extent_id not in referenced
        ]
        if orphans:
            _fail(
                f"extent leak: {len(orphans)} live extent(s) referenced by "
                f"no binding, e.g. {orphans[0]!r}"
            )
        pinned = pinned_by_disk.get(disk, 0)
        if disk.live_bytes != pinned:
            _fail(
                f"byte-accounting leak: disk holds {disk.live_bytes} live "
                f"bytes but bindings pin {pinned}"
            )

    if scheme is not None:
        scheme_days = {
            name: set(days) for name, days in scheme.days.items() if days
        }
        wave_days = {
            name: days for name, days in wave.days_by_name().items() if days
        }
        if scheme_days != wave_days:
            _fail(
                "binding inconsistency: scheme bookkeeping "
                f"{ {k: sorted(v) for k, v in scheme_days.items()} } != wave "
                f"bindings { {k: sorted(v) for k, v in wave_days.items()} }"
            )

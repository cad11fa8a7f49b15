"""Extent handles for the simulated disk.

An :class:`Extent` is a contiguous byte range on the simulated device.  It is
the unit of allocation: packed indexes live in a single extent per index (one
seek scans them), while CONTIGUOUS buckets each own a private extent that is
reallocated when it overflows.

Extents are handles, not data containers — the payload of an index lives in
ordinary Python structures owned by the index layer.  The extent records
*where* and *how large*, which is all the cost model needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from ..errors import ExtentError

_EXTENT_IDS = count(1)


@dataclass
class Extent:
    """A contiguous allocated byte range ``[offset, offset + size)``.

    Attributes:
        offset: Starting byte address on the device.
        size: Allocated length in bytes.
        live: ``False`` once the extent has been freed; any further use
            raises :class:`~repro.errors.ExtentError`.
        extent_id: Monotonic identity, stable across the extent's life.
    """

    offset: int
    size: int
    live: bool = True
    extent_id: int = field(default_factory=lambda: next(_EXTENT_IDS))

    @property
    def end(self) -> int:
        """Return the first byte address past the extent."""
        return self.offset + self.size

    def check_live(self) -> None:
        """Raise :class:`ExtentError` if the extent has been freed."""
        if not self.live:
            raise ExtentError(
                f"extent #{self.extent_id} at [{self.offset}, {self.end}) "
                "was already freed"
            )

    def overlaps(self, other: "Extent") -> bool:
        """Return ``True`` if this extent shares any byte with ``other``.

        Zero-size extents occupy no bytes and never overlap anything.
        """
        if self.size == 0 or other.size == 0:
            return False
        return self.offset < other.end and other.offset < self.end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "live" if self.live else "freed"
        return (
            f"Extent(#{self.extent_id}, [{self.offset}, {self.end}), "
            f"{self.size}B, {state})"
        )

"""Configuration shared by constituent indexes.

The setting the paper varies here is the CONTIGUOUS growth factor ``g``
(Table 12 uses 2.0 for Zipfian text and 1.08 for uniform TPC-D keys);
the directory flavour is a choice of the implementation.  The entry
size, which drives all byte accounting, is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

from .contiguous import ContiguousPolicy
from .directory import Directory
from .hashdir import HashDirectory


def _default_directory() -> Directory:
    return HashDirectory()


@dataclass(frozen=True)
class IndexConfig:
    """Immutable settings for building and updating constituent indexes.

    Attributes:
        entry_size_bytes: Serialized size of one
            :class:`~repro.index.entry.Entry` (a constant, not a field).
        contiguous: Growth policy for incremental (non-packed) buckets.
        directory_factory: Zero-argument callable producing an empty
            directory; defaults to :class:`HashDirectory`.  Pass
            ``lambda: BPlusTreeDirectory()`` for ordered directories.
    """

    entry_size_bytes: ClassVar[int] = 16
    contiguous: ContiguousPolicy = field(default_factory=ContiguousPolicy)
    directory_factory: Callable[[], Directory] = _default_directory

    def bytes_for(self, n_entries: int) -> int:
        """Return the serialized size of ``n_entries`` entries."""
        if n_entries < 0:
            raise ValueError(f"n_entries must be >= 0, got {n_entries}")
        return n_entries * self.entry_size_bytes

"""Constituent-index layer: directories, buckets, CONTIGUOUS updates.

Implements the "conventional index" of the paper's Section 2 — an in-memory
directory (B+Tree or hash) over on-disk buckets of timestamped entries —
plus the three update techniques of Section 2.1 and the packed builder of
Section 2.2.
"""

from .btree import BPlusTreeDirectory
from .bucket import Bucket
from .builder import build_empty_index, build_index_from_store, build_packed_index
from .config import IndexConfig
from .constituent import ConstituentIndex
from .contiguous import ContiguousPolicy
from .directory import Directory
from .entry import Entry, entries_by_value
from .hashdir import HashDirectory
from .updates import (
    UpdateTechnique,
    add_to_index,
    clone_index,
    delete_from_index,
    packed_rewrite,
)

__all__ = [
    "BPlusTreeDirectory",
    "Bucket",
    "ConstituentIndex",
    "ContiguousPolicy",
    "Directory",
    "Entry",
    "HashDirectory",
    "IndexConfig",
    "UpdateTechnique",
    "add_to_index",
    "build_empty_index",
    "build_index_from_store",
    "build_packed_index",
    "clone_index",
    "delete_from_index",
    "entries_by_value",
    "packed_rewrite",
]

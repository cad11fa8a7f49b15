"""Simulated storage substrate: extents, allocator, clocked disk.

This package stands in for the paper's physical disk.  See ``DESIGN.md`` for
the substitution rationale: the paper's cost analysis uses only seek time and
transfer bandwidth, both of which :class:`DiskParameters` exposes.
"""

from .allocator import ExtentAllocator
from .array import DiskArray
from .bufferpool import BufferPoolModel
from .cost import DEFAULT_BANDWIDTH_BPS, DEFAULT_SEEK_S, MEGABYTE, DiskParameters
from .disk import SimulatedDisk
from .extent import Extent
from .faults import (
    CrashPoint,
    FaultInjector,
    FaultStats,
    FaultyDisk,
    RetryPolicy,
)
from .pagecache import DEFAULT_PAGE_SIZE, PageCache, PageCacheSnapshot
from .stats import IOSnapshot, IOStats

__all__ = [
    "BufferPoolModel",
    "DiskArray",
    "DEFAULT_PAGE_SIZE",
    "PageCache",
    "PageCacheSnapshot",
    "CrashPoint",
    "FaultInjector",
    "FaultStats",
    "FaultyDisk",
    "RetryPolicy",
    "DEFAULT_BANDWIDTH_BPS",
    "DEFAULT_SEEK_S",
    "MEGABYTE",
    "DiskParameters",
    "Extent",
    "ExtentAllocator",
    "IOSnapshot",
    "IOStats",
    "SimulatedDisk",
]

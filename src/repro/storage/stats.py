"""I/O statistics collected by the simulated disk.

The counters mirror the quantities the paper reasons about: seeks, bytes
read/written, and elapsed device time.  :class:`IOSnapshot` records
support subtraction, so a cold caller (turn bookkeeping, a bench harness)
can measure a window of activity::

    before = disk.stats.snapshot()
    ...do work...
    delta = disk.stats.snapshot() - before

A hot path reads the counters it needs off :class:`IOStats` instead and
subtracts those: a batch's bill (``WaveIndex._begin_batch``) builds no
record.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IOSnapshot:
    """An immutable point-in-time copy of the disk counters."""

    seeks: float = 0
    bytes_read: int = 0
    bytes_written: int = 0
    reads: int = 0
    writes: int = 0
    busy_seconds: float = 0.0

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            seeks=self.seeks - other.seeks,
            bytes_read=self.bytes_read - other.bytes_read,
            bytes_written=self.bytes_written - other.bytes_written,
            reads=self.reads - other.reads,
            writes=self.writes - other.writes,
            busy_seconds=self.busy_seconds - other.busy_seconds,
        )

    @property
    def bytes_total(self) -> int:
        """Return total bytes moved in either direction."""
        return self.bytes_read + self.bytes_written


class IOStats:
    """Mutable I/O counters owned by a :class:`~repro.storage.disk.SimulatedDisk`."""

    def __init__(self) -> None:
        self.seeks = 0.0
        self.bytes_read = 0
        self.bytes_written = 0
        self.reads = 0
        self.writes = 0
        self.busy_seconds = 0.0

    def record_read(self, nbytes: int, seeks: float, seconds: float) -> None:
        """Account for a read of ``nbytes`` preceded by ``seeks`` seeks."""
        self.reads += 1
        self.seeks += seeks
        self.bytes_read += nbytes
        self.busy_seconds += seconds

    def record_write(self, nbytes: int, seeks: float, seconds: float) -> None:
        """Account for a write of ``nbytes`` preceded by ``seeks`` seeks."""
        self.writes += 1
        self.seeks += seeks
        self.bytes_written += nbytes
        self.busy_seconds += seconds

    def snapshot(self) -> IOSnapshot:
        """Return an immutable copy of the current counters."""
        return IOSnapshot(
            seeks=self.seeks,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            reads=self.reads,
            writes=self.writes,
            busy_seconds=self.busy_seconds,
        )

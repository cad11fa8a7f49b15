"""Query result types for wave indexes.

The four access operations of Section 2.2 (``IndexProbe``, ``SegmentScan``
and their timed variants) all reduce to the two timed forms; these result
records carry the entries found plus the cost information the performance
analysis needs (simulated seconds, number of constituent indexes touched —
the paper's ``Probe_idx`` / ``Scan_idx``).

Both result types also report *coverage*: which requested days the answer
actually drew from (``covered_days``) and which were lost to offline
constituents (``missing_days``).  In a fault-free wave index every result is
:attr:`complete`; under degraded-mode queries (``degraded=True`` with a
constituent knocked out by a :class:`~repro.errors.DeviceFailure`) the
caller uses these fields to tell a partial answer from a full one.

``entries`` is a ``Sequence[Entry]`` that equals the tuple of the answer
whatever carries it: the in-process read path hands out tuples, a wire
client a :class:`~repro.index.codec.EntryBlock` that builds its tuple
when an entry is first asked for and serves ``record_ids`` — what the
paper's probe returns — from the block's id column without building it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..index.codec import EntryBlock
from ..index.entry import Entry
from ..index.kernels import Part


#: Stores a frozen record's ``__dict__`` whole, at construction.
_publish = object.__setattr__


def _record_ids(entries: Sequence[Entry]) -> tuple[int, ...]:
    if isinstance(entries, EntryBlock):
        return tuple(entries.record_ids)
    return tuple(e.record_id for e in entries)


@dataclass(frozen=True, init=False)
class ProbeResult:
    """Outcome of a (timed) index probe."""

    entries: Sequence[Entry]
    seconds: float
    indexes_probed: int
    covered_days: frozenset[int] = frozenset()
    missing_days: frozenset[int] = frozenset()
    #: The run slices ``entries`` was cut from, in answer order, when
    #: the read path knows them: what lets the wire layer join the runs'
    #: encoded bytes instead of encoding ``entries`` again.  Not part of
    #: the result's value — equality, hashing and ``repr`` never see it.
    parts: tuple[Part, ...] | None = field(
        default=None, compare=False, repr=False
    )

    def __init__(
        self,
        entries: Sequence[Entry],
        seconds: float,
        indexes_probed: int,
        covered_days: frozenset[int] = frozenset(),
        missing_days: frozenset[int] = frozenset(),
        parts: tuple[Part, ...] | None = None,
    ) -> None:
        # One store of the whole ``__dict__``, not a frozen dataclass's
        # ``object.__setattr__`` per field: a batch builds one result
        # per unique spec.
        _publish(
            self,
            "__dict__",
            {
                "entries": entries,
                "seconds": seconds,
                "indexes_probed": indexes_probed,
                "covered_days": covered_days,
                "missing_days": missing_days,
                "parts": parts,
            },
        )

    @property
    def record_ids(self) -> tuple[int, ...]:
        """Return the matching record ids in retrieval order."""
        return _record_ids(self.entries)

    @property
    def complete(self) -> bool:
        """Return ``True`` when no requested day was lost to a fault."""
        return not self.missing_days


@dataclass(frozen=True, init=False)
class ScanResult:
    """Outcome of a (timed) segment scan."""

    entries: Sequence[Entry]
    seconds: float
    indexes_scanned: int
    covered_days: frozenset[int] = frozenset()
    missing_days: frozenset[int] = frozenset()
    #: As :attr:`ProbeResult.parts`: a one-day scan is cut from its
    #: day's run, a whole-constituent scan from the sweep.
    parts: tuple[Part, ...] | None = field(
        default=None, compare=False, repr=False
    )

    def __init__(
        self,
        entries: Sequence[Entry],
        seconds: float,
        indexes_scanned: int,
        covered_days: frozenset[int] = frozenset(),
        missing_days: frozenset[int] = frozenset(),
        parts: tuple[Part, ...] | None = None,
    ) -> None:
        # As ProbeResult's: one store of the whole ``__dict__``.
        _publish(
            self,
            "__dict__",
            {
                "entries": entries,
                "seconds": seconds,
                "indexes_scanned": indexes_scanned,
                "covered_days": covered_days,
                "missing_days": missing_days,
                "parts": parts,
            },
        )

    @property
    def record_ids(self) -> tuple[int, ...]:
        """Return the matching record ids in retrieval order."""
        return _record_ids(self.entries)

    @property
    def complete(self) -> bool:
        """Return ``True`` when no requested day was lost to a fault."""
        return not self.missing_days


@dataclass(frozen=True)
class BatchCostSummary:
    """Device-level accounting for one batched query call.

    ``seconds``/``seeks``/``bytes_read`` are measured as deltas of the
    disk's clock and I/O counters around the batch, so they include every
    cache effect; the remaining fields describe the amortization the batch
    achieved (requests served per physical bucket read, constituents swept
    once instead of per request).
    """

    requests: int
    seconds: float
    seeks: float
    bytes_read: int
    constituents_touched: int
    buckets_read: int
    duplicate_hits: int
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def seconds_per_request(self) -> float:
        """Return mean simulated seconds per request in the batch."""
        return self.seconds / self.requests if self.requests else 0.0


class BilledBatch:
    """A batch's results, and its bill built when first read.

    ``bill`` is ``(build, *readings)``: what the batch read off its
    device counters and shards when it ended, and the function that
    makes the summary record of them, ``build(*readings)``.  Serving
    never reads a bill, so it builds none; the first :attr:`summary`
    read builds the record and publishes it by one assignment (as
    :meth:`~repro.index.kernels.Run.records` publishes its slot), so a
    bill read twice, or read after later batches have run, is the one
    record of the batch as it ended.  Equality, hashing and ``repr``
    are those of a frozen ``(results, summary)`` record.
    """

    __slots__ = ("results", "_bill", "_summary")

    def __init__(self, results: tuple, bill: tuple) -> None:
        self.results = results
        self._bill = bill
        self._summary = None

    @property
    def summary(self) -> Any:
        """Return the batch's bill, building it on the first read."""
        summary = self._summary
        if summary is None:
            build, *readings = self._bill
            summary = self._summary = build(*readings)
        return summary

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, i: int) -> Any:
        return self.results[i]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.results, self.summary) == (other.results, other.summary)

    def __hash__(self) -> int:
        return hash((self.results, self.summary))

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(results={self.results!r}, "
            f"summary={self.summary!r})"
        )


class BatchProbeResult(BilledBatch):
    """Outcome of :meth:`~repro.core.wave.WaveIndex.probe_many`: the
    per-request :class:`ProbeResult`\\ s and a :class:`BatchCostSummary`
    built on the first :attr:`summary` read from the five counter
    readings the batch took at each end (``WaveIndex._finish_batch``)."""

    __slots__ = ()
    results: tuple[ProbeResult, ...]

    @property
    def seconds(self) -> float:
        """Return the batch's total simulated seconds."""
        return self.summary.seconds


class BatchScanResult(BilledBatch):
    """Outcome of :meth:`~repro.core.wave.WaveIndex.scan_many`, billed as
    :class:`BatchProbeResult` is."""

    __slots__ = ()
    results: tuple[ScanResult, ...]

    @property
    def seconds(self) -> float:
        """Return the batch's total simulated seconds."""
        return self.summary.seconds

"""Key-space partitioners for the sharded wave-index cluster.

A wave index keeps one sliding window fast by spreading maintenance over
``n`` constituents; the cluster layer applies the same trick across the
*key space*: each of ``k`` shards owns a slice of the search-field domain
and runs its own wave index over the full window.  The partitioner is the
contract between the two layers — a pure, stateless mapping from search
values to shard ids that both the shards' views of the record store (when
a day is posted) and the coordinator (at query time) consult, so a probe
for ``value`` always lands on the shard holding ``value``'s postings.
The split is of the key space, not of the data: :func:`partition_store`
returns one :class:`ShardView` a shard over one source store, which
keeps the only copy of every record and posts every day once.

Three implementations mirror the classic physical designs:

* :class:`HashPartitioner` — stable CRC32 of the value; balanced for any
  key distribution, but range queries fan out to every shard.
* :class:`RangePartitioner` — ordered split points; co-locates adjacent
  keys (and makes shard rebalancing a contiguous-range move) at the cost
  of balance depending on the chosen splits.
* :class:`SlotHashPartitioner` — CRC32 into a fixed slot ring with an
  explicit slot-to-shard table; routing-compatible with elastic topology
  changes, because splitting a shard only reassigns *that shard's* slots.

For online resharding (:mod:`repro.cluster.elastic`) the range and
slot-hash partitioners support :meth:`split` / :meth:`merge_with_next`,
both returning a *new* partitioner that changes the routing of keys in
the affected shard(s) only — every other key keeps its shard, whose id
shifts by the shards the change adds or removes below it.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from fractions import Fraction
from numbers import Number
from typing import Any, Iterable, Protocol, Sequence, runtime_checkable
from zlib import crc32

from ..core.records import DayBatch, PostingRun, Record, RecordStore
from ..errors import ClusterError, WorkloadError


@runtime_checkable
class Partitioner(Protocol):
    """Maps search values to shard ids ``0 .. n_shards - 1``.

    Implementations must be deterministic and stateless: the same value
    maps to the same shard on every call, in every process (bench
    artifacts are byte-compared across runs).
    """

    @property
    def n_shards(self) -> int:
        """Return the number of shards the key space is split into."""
        ...

    def shard_for(self, value: Any) -> int:
        """Return the shard id owning ``value``."""
        ...

    def shards_for_many(self, values: Sequence[Any]) -> list[int]:
        """Return the shard id per value, in input order.

        Semantically ``[self.shard_for(v) for v in values]``; batched so
        implementations can amortize per-value work (hashing, string
        conversion) across a whole scatter.
        """
        ...

    def describe(self) -> dict[str, Any]:
        """Return a JSON-friendly description (for bench reports)."""
        ...


def _spelling(value: Any) -> str:
    """Return the text CRC32 routing hashes: one spelling per distinct key.

    ``1 == 1.0 == True`` and ``0.5 == Fraction(1, 2) == Decimal("0.5")``
    are each one key to every directory and memo, so each is one key to the
    router, at any depth of a tuple: an integer value is spelled as the
    ``int``, any other real as the ``float`` equal to it, or as a
    ``Fraction`` when no ``float`` is; ``str``, ``int`` and ``float`` keys
    as ``str()`` does.
    """
    if type(value) is str:
        return value
    return str(_canonical(value))


def _canonical(value: Any) -> Any:
    if type(value) is tuple:
        return tuple(map(_canonical, value))
    if type(value) is int or not isinstance(value, Number):
        return value
    if isinstance(value, complex) and not value.imag:
        value = value.real
    try:
        exact = Fraction(value)
    except OverflowError:  # an infinity, float's or Decimal's
        return float(value)
    except (TypeError, ValueError):  # complex off the real line, a nan
        return value
    if exact.denominator == 1:
        return exact.numerator
    if abs(exact) < 2**53 and float(exact) == exact:  # past it every float is whole
        return float(exact)
    return exact


class HashPartitioner:
    """Shard by stable CRC32 of the value's string form.

    CRC32 rather than builtin ``hash()``: string hashing is salted per
    process (``PYTHONHASHSEED``), which would scatter the same store
    differently on every run and break artifact reproducibility.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ClusterError(f"need at least one shard, got {n_shards}")
        self._n_shards = n_shards
        #: Value -> shard memo.  The mapping is pure, so caching it is
        #: invisible; bounded by the number of distinct search values.
        self._memo: dict[Any, int] = {}

    @property
    def n_shards(self) -> int:
        return self._n_shards

    def shard_for(self, value: Any) -> int:
        return crc32(_spelling(value).encode("utf-8")) % self._n_shards

    def shards_for_many(self, values: Sequence[Any]) -> list[int]:
        return _shards_for_many_memo(self, values, self._memo)

    def describe(self) -> dict[str, Any]:
        return {"kind": "hash", "n_shards": self._n_shards}

    def __repr__(self) -> str:
        return f"HashPartitioner(n_shards={self._n_shards})"


class RangePartitioner:
    """Shard by ordered split points over a comparable key domain.

    ``split_points`` must be strictly increasing; values strictly less
    than ``split_points[0]`` go to shard 0, values in
    ``[split_points[i-1], split_points[i])`` to shard ``i``, and values
    ``>= split_points[-1]`` to the last shard — so ``len(split_points)+1``
    shards in total, and :meth:`shard_for` is monotone non-decreasing in
    the value (the property the hypothesis suite asserts).
    """

    def __init__(self, split_points: Iterable[Any]) -> None:
        splits = list(split_points)
        if not splits:
            raise ClusterError("range partitioning needs >= 1 split point")
        for left, right in zip(splits, splits[1:]):
            try:
                ordered = left < right
            except TypeError as exc:
                raise ClusterError(
                    f"split points {left!r} and {right!r} are not comparable"
                ) from exc
            if not ordered:
                raise ClusterError(
                    f"split points must be strictly increasing; "
                    f"{left!r} >= {right!r}"
                )
        self.split_points = tuple(splits)

    @property
    def n_shards(self) -> int:
        return len(self.split_points) + 1

    def shard_for(self, value: Any) -> int:
        try:
            return bisect_right(self.split_points, value)
        except TypeError as exc:
            raise ClusterError(
                f"value {value!r} is not comparable with the split points"
            ) from exc

    def shards_for_many(self, values: Sequence[Any]) -> list[int]:
        return [self.shard_for(value) for value in values]

    def split(self, shard_id: int, *, key: Any = None) -> "RangePartitioner":
        """Return a new partitioner with shard ``shard_id`` split at ``key``.

        ``key`` becomes a new split point strictly inside the shard's
        range, producing children ``shard_id`` (``[lo, key)``) and
        ``shard_id + 1`` (``[key, hi)``); shards above shift up by one.
        The edge cases split/merge exposed are rejected explicitly:

        * ``key`` equal to the shard's *lower* boundary would leave the
          left child empty;
        * ``key`` equal to (or past) the shard's *upper* boundary would
          leave the right child empty — including the single-value range
          ``[b, b+1)`` over integers, which has no interior split point;
        * duplicate split points would break strict monotonicity.
        """
        if not 0 <= shard_id < self.n_shards:
            raise ClusterError(
                f"shard {shard_id} outside [0, {self.n_shards})"
            )
        if key is None:
            raise ClusterError("range split needs an explicit key")
        splits = self.split_points
        try:
            if shard_id > 0 and not splits[shard_id - 1] < key:
                raise ClusterError(
                    f"split key {key!r} is not above the shard's lower "
                    f"boundary {splits[shard_id - 1]!r} — the left child "
                    f"range would be empty"
                )
            if shard_id < len(splits) and not key < splits[shard_id]:
                raise ClusterError(
                    f"split key {key!r} is not below the shard's upper "
                    f"boundary {splits[shard_id]!r} — the right child "
                    f"range would be empty"
                )
        except TypeError as exc:
            raise ClusterError(
                f"split key {key!r} is not comparable with the split points"
            ) from exc
        return RangePartitioner(
            splits[:shard_id] + (key,) + splits[shard_id:]
        )

    def merge_with_next(self, shard_id: int) -> "RangePartitioner":
        """Return a new partitioner merging ``shard_id`` with ``shard_id+1``.

        The inverse of :meth:`split`: removing the boundary between the
        two shards re-fuses their ranges, and
        ``p.split(s, key=k).merge_with_next(s)`` routes every value
        exactly as ``p`` does (the hypothesis suite asserts the identity).
        A range partitioner always has >= 2 shards, so merging is only
        possible down to 2.
        """
        if not 0 <= shard_id < self.n_shards - 1:
            raise ClusterError(
                f"shard {shard_id} has no next neighbour to merge with "
                f"(n_shards={self.n_shards})"
            )
        if len(self.split_points) == 1:
            raise ClusterError(
                "cannot merge a 2-shard range partitioner down to one "
                "shard (a range partitioner needs >= 1 split point)"
            )
        splits = self.split_points
        return RangePartitioner(splits[:shard_id] + splits[shard_id + 1:])

    def describe(self) -> dict[str, Any]:
        return {
            "kind": "range",
            "n_shards": self.n_shards,
            "split_points": [str(p) for p in self.split_points],
        }

    def __repr__(self) -> str:
        return f"RangePartitioner(split_points={self.split_points!r})"


class SlotHashPartitioner:
    """Hash into a fixed slot ring with an explicit slot-to-shard table.

    Plain ``crc32 % k`` cannot split one shard without rerouting almost
    every key (changing ``k`` changes every residue).  The classic fix is
    a level of indirection: hash into ``n_slots`` fixed slots and keep a
    table mapping slots to shards.  Splitting a shard then moves half of
    *its own* slots to the new shard; every other key keeps its slot and
    its shard.  This is the elastic-capable hash partitioner the
    resharding engine uses (``kind="slot-hash"``).

    Args:
        slot_to_shard: Shard id per slot; shard ids must cover
            ``0 .. max`` contiguously (every shard owns >= 1 slot).
    """

    def __init__(self, slot_to_shard: Iterable[int]) -> None:
        table = tuple(slot_to_shard)
        if not table:
            raise ClusterError("slot-hash partitioning needs >= 1 slot")
        shards = set(table)
        n_shards = max(shards) + 1
        if shards != set(range(n_shards)):
            missing = sorted(set(range(n_shards)) - shards)
            raise ClusterError(
                f"slot table must cover shards 0..{n_shards - 1} "
                f"contiguously; missing {missing}"
            )
        self.slot_to_shard = table
        self._n_shards = n_shards
        self._memo: dict[Any, int] = {}

    @classmethod
    def balanced(cls, n_shards: int, n_slots: int = 64) -> "SlotHashPartitioner":
        """Build a table spreading ``n_slots`` round-robin over shards."""
        if n_shards < 1:
            raise ClusterError(f"need at least one shard, got {n_shards}")
        if n_slots < n_shards:
            raise ClusterError(
                f"need at least one slot per shard; "
                f"{n_slots} slots < {n_shards} shards"
            )
        return cls(tuple(slot % n_shards for slot in range(n_slots)))

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def n_slots(self) -> int:
        return len(self.slot_to_shard)

    def shard_for(self, value: Any) -> int:
        slot = crc32(_spelling(value).encode("utf-8")) % len(self.slot_to_shard)
        return self.slot_to_shard[slot]

    def shards_for_many(self, values: Sequence[Any]) -> list[int]:
        return _shards_for_many_memo(self, values, self._memo)

    def owned_slots(self, shard_id: int) -> tuple[int, ...]:
        """Return the slots routed to ``shard_id``, in ring order."""
        return tuple(
            slot
            for slot, shard in enumerate(self.slot_to_shard)
            if shard == shard_id
        )

    def split(self, shard_id: int, *, key: Any = None) -> "SlotHashPartitioner":
        """Return a new partitioner splitting ``shard_id`` into two.

        The second half of the shard's slots (in ring order) moves to a
        new shard inserted at ``shard_id + 1``; shards above shift up by
        one.  ``key`` is accepted for API symmetry with
        :meth:`RangePartitioner.split` and ignored — slot moves are
        deterministic.  A shard that owns a single slot cannot be split.
        """
        if not 0 <= shard_id < self._n_shards:
            raise ClusterError(
                f"shard {shard_id} outside [0, {self._n_shards})"
            )
        owned = self.owned_slots(shard_id)
        if len(owned) < 2:
            raise ClusterError(
                f"shard {shard_id} owns a single slot and cannot be "
                f"split further (add slots or merge first)"
            )
        moved = set(owned[len(owned) // 2:])
        table = []
        for slot, shard in enumerate(self.slot_to_shard):
            if shard > shard_id:
                table.append(shard + 1)
            elif shard == shard_id and slot in moved:
                table.append(shard_id + 1)
            else:
                table.append(shard)
        return SlotHashPartitioner(table)

    def merge_with_next(self, shard_id: int) -> "SlotHashPartitioner":
        """Return a new partitioner folding ``shard_id + 1`` into ``shard_id``.

        The next shard's slots join ``shard_id``; shards above shift down
        by one.  Inverse of :meth:`split` when applied to the same shard.
        """
        if not 0 <= shard_id < self._n_shards - 1:
            raise ClusterError(
                f"shard {shard_id} has no next neighbour to merge with "
                f"(n_shards={self._n_shards})"
            )
        table = []
        for shard in self.slot_to_shard:
            if shard == shard_id + 1:
                table.append(shard_id)
            elif shard > shard_id + 1:
                table.append(shard - 1)
            else:
                table.append(shard)
        return SlotHashPartitioner(table)

    def describe(self) -> dict[str, Any]:
        return {
            "kind": "slot-hash",
            "n_shards": self._n_shards,
            "n_slots": len(self.slot_to_shard),
            "slot_to_shard": list(self.slot_to_shard),
        }

    def __repr__(self) -> str:
        return (
            f"SlotHashPartitioner(n_shards={self._n_shards}, "
            f"n_slots={len(self.slot_to_shard)})"
        )


def _shards_for_many_memo(
    partitioner: Partitioner, values: Sequence[Any], memo: dict[Any, int]
) -> list[int]:
    """Batched routing through a per-partitioner value-to-shard memo.

    CRC32 routing re-hashes the value's spelling on every call; a scatter
    of a few thousand probes touches the same hot values over and over, so
    memoizing the (pure) mapping removes the hash from the hot path.  Equal
    keys share a slot and, by :func:`_spelling`, a shard, so which of them
    filled the slot cannot be seen.  Unhashable values fall back to the
    direct computation.
    """
    shard_for = partitioner.shard_for
    out = []
    for value in values:
        try:
            shard = memo.get(value)
        except TypeError:
            out.append(shard_for(value))
            continue
        if shard is None:
            shard = shard_for(value)
            memo[value] = shard
        out.append(shard)
    return out


def make_partitioner(
    kind: str, n_shards: int, *, range_splits: Iterable[Any] = ()
) -> Partitioner:
    """Build the partitioner named by ``kind``.

    Kinds: ``"hash"`` (static CRC32), ``"slot-hash"`` (elastic-capable
    CRC32 through a slot ring), ``"range"`` (explicit split points).
    For ``"range"`` with no explicit splits, integer split points are
    synthesized from CRC32 order statistics — callers that care about the
    actual key distribution pass their own ``range_splits``.
    """
    if kind == "hash":
        return HashPartitioner(n_shards)
    if kind == "slot-hash":
        return SlotHashPartitioner.balanced(n_shards)
    if kind == "range":
        splits = list(range_splits)
        if splits:
            if len(splits) != n_shards - 1:
                raise ClusterError(
                    f"{n_shards} shards need {n_shards - 1} split points, "
                    f"got {len(splits)}"
                )
            return RangePartitioner(splits)
        if n_shards == 1:
            return HashPartitioner(1)  # one shard needs no splits
        raise ClusterError(
            "range partitioning needs explicit range_splits for k > 1"
        )
    raise ClusterError(f"unknown partitioner kind {kind!r}")


class _Split:
    """What the ``k`` views of one source store share.

    Per day, the raw bytes ``BuildIndex`` is charged for on each shard;
    per live source run, its ``k`` cuts.  The cuts are held through the
    source run (weakly keyed) and never refer back to it, so a source run
    is kept by whoever holds *it* — nothing here — and its cuts die with
    it unless an index holds them.
    """

    def __init__(self, source: RecordStore, partitioner: Partitioner) -> None:
        self.source = source
        self.partitioner = partitioner
        self._data_bytes: dict[int, list[int]] = {}
        self._cuts: weakref.WeakKeyDictionary[
            PostingRun, tuple[PostingRun, ...]
        ] = weakref.WeakKeyDictionary()
        # The days already there are routed now, so no turn over them
        # pays for the pass; a day added later is routed on first ask.
        for day in source.days:
            self.data_bytes(day)

    def data_bytes(self, day: int) -> list[int]:
        """Return each shard's share of ``day``'s raw bytes.

        A record's bytes are split proportionally to the values a shard
        owns, floored per record — what the narrowed copy of it would
        carry (:meth:`ShardView.batch`).
        """
        shares = self._data_bytes.get(day)
        if shares is None:
            shards_for_many = self.partitioner.shards_for_many
            shares = [0] * self.partitioner.n_shards
            for record in self.source.batch(day).records:
                values = record.values
                owners = shards_for_many(values)
                for shard_id in set(owners):
                    shares[shard_id] += (
                        record.nbytes * owners.count(shard_id) // len(values)
                    )
            self._data_bytes[day] = shares
        return shares

    def cuts(self, day: int) -> tuple[PostingRun, ...]:
        """Return the ``k`` cuts of ``day``'s source run, cutting it once."""
        (run,) = self.source.runs_for((day,))
        cuts = self._cuts.get(run)
        if cuts is None:
            partitioner = self.partitioner
            cuts = self._cuts[run] = run.cut(
                partitioner.shards_for_many(list(run.grouped)),
                partitioner.n_shards,
            )
        return cuts


class ShardView(RecordStore):
    """One shard's slice of a source store, stored nowhere.

    Answers what the index path asks — ``runs_for``, ``grouped_for``,
    ``data_bytes_for`` — from the source store's own records and posting
    runs: a run of this store is the shard's cut of the source's run.
    The days are the source's, live; :meth:`batch` narrows the records
    on demand for the cold callers that read them.
    """

    def __init__(self, split: _Split, shard_id: int) -> None:
        super().__init__()
        self._split = split
        self.shard_id = shard_id

    def add_batch(self, batch: DayBatch) -> None:
        raise WorkloadError("a shard view is read-only; add to its source store")

    def batch(self, day: int) -> DayBatch:
        """Return the records of ``day`` that own a value here, narrowed.

        Each carries only its owned values and the matching share of its
        raw ``nbytes``.  Built on every call, kept by no one.
        """
        shard_id = self.shard_id
        shards_for_many = self._split.partitioner.shards_for_many
        records = []
        for record in self._split.source.batch(day).records:
            values = record.values
            mine = tuple(
                value
                for value, owner in zip(values, shards_for_many(values))
                if owner == shard_id
            )
            if mine:
                share = record.nbytes * len(mine) // len(values)
                records.append(
                    Record(record.record_id, day, mine, share, record.info)
                )
        return DayBatch(day, records)

    def has_day(self, day: int) -> bool:
        return self._split.source.has_day(day)

    @property
    def days(self) -> list[int]:
        return self._split.source.days

    def _post(self, day: int) -> PostingRun:
        return self._split.cuts(day)[self.shard_id]

    def data_bytes_for(self, days: Iterable[int]) -> int:
        data_bytes = self._split.data_bytes
        return sum(data_bytes(day)[self.shard_id] for day in set(days))


def partition_store(
    store: RecordStore, partitioner: Partitioner
) -> list[RecordStore]:
    """Split ``store`` into one :class:`ShardView` per shard.

    Every shard sees *every* day of the source store (possibly empty
    there), including days added later, so schemes can rebuild any day
    range on any shard.  A record with several search values belongs to
    every shard owning at least one of them, with only the owned value
    subset; its raw ``nbytes`` are split proportionally to the values
    kept, so the cluster-wide build cost stays comparable to the
    single-index build.  No record is copied and a day is posted once,
    by the source store, for all the views.

    With one shard the original store is returned as-is — the identity
    that makes the ``k=1`` cluster bit-identical to the single-index
    simulation.
    """
    if partitioner.n_shards == 1:
        return [store]
    split = _Split(store, partitioner)
    return [ShardView(split, shard_id) for shard_id in range(partitioner.n_shards)]

"""Fixed-width batch entry codec.

A real deployment of the paper's schemes stores bucket entries as
fixed-width records — the paper's ``c`` bytes per entry — and moves them
in batches: a packed build writes one contiguous run of records, a scan
reads one back, a replica copy ships them over the wire.  The simulated
substrate kept entries as Python ``NamedTuple`` objects and serialised
them one at a time (JSON lists in wave snapshots), which made entry
movement the dominant CPU cost at bench scale.

This module is the contiguous-buffer representation: a batch of
:class:`~repro.index.entry.Entry` values encodes to one ``bytes`` blob
of fixed-width records plus a side pool for variable-width ``info``
payloads, and decodes back to the identical list of entries.

Record layout (little-endian, :data:`RECORD_SIZE` bytes per entry)::

    int64  record_id
    int64  day
    uint8  info tag  (0=None, 1=int64, 2=float64, 3=str, 4=big int)
    7x     padding (zeros)
    8      payload  (int64 / float64 bits / uint32 pool offset+length)

``str`` payloads land UTF-8 in a shared pool after the record run; ints
outside the int64 range are stored in the pool as decimal text (tag 4),
so arbitrary Python ints round-trip exactly.

Two implementations produce **byte-identical** output:

* :func:`encode_entries_object` / :func:`decode_entries_object` — the
  per-entry reference path (one ``struct`` call per record);
* :func:`encode_entries` / :func:`decode_entries` — the batch path:
  a record whose info is ``None`` or an int64 is four int64 words (the
  tag byte and its padding read as one word), so whole columns move
  through strided slices of one ``array('q')`` buffer.  Standard
  library only: the serving frontend puts these blocks on the wire, and
  there the set-up cost at four entries matters as much as the
  per-entry cost at eight thousand.  Pool-backed infos (strings, big
  ints) and floats take the reference path.

The batch path's two kernels are also usable on their own, which is how
an answer crosses the wire without being rebuilt entry by entry:

* :func:`encode_records` is the column kernel without the header — a
  bucket's :class:`~repro.index.kernels.Run` keeps its output for as
  long as the bucket is unmutated — and :func:`join_records` puts a
  header in front of record runs cut from it;
* :func:`read_block` makes every check a block gets and returns an
  :class:`EntryBlock`: a ``Sequence[Entry]`` over the record words that
  equals the decoded tuple, builds it on first access, and serves
  ``len`` and the id / day columns without building it.

The hypothesis suite (``tests/index/test_codec.py``) proves the two
paths equal on random entry lists, including the ``info=None`` and
non-int ``info`` edge cases, and an :class:`EntryBlock` equal to its
tuple under every sequence operation.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import Iterator, Sequence
from itertools import repeat

from .entry import Entry

#: Format marker leading every encoded block.
MAGIC = b"WIX1"

#: Bytes per fixed-width record.
RECORD_SIZE = 32

#: Header: magic, entry count, pool length.
_HEADER = struct.Struct("<4sQQ")

#: One record: record_id, day, tag, 7 pad bytes, 8 payload bytes.
_RECORD = struct.Struct("<qqB7x8s")

#: Payload encodings per tag.
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_POOL_REF = struct.Struct("<II")

TAG_NONE = 0
TAG_INT = 1
TAG_FLOAT = 2
TAG_STR = 3
TAG_BIGINT = 4

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

_ZERO_PAYLOAD = b"\x00" * 8


class EntryCodecError(ValueError):
    """Raised on malformed blocks or unencodable entries."""


def _check_day_fields(record_id: int, day: int) -> None:
    if not (_I64_MIN <= record_id <= _I64_MAX) or not (
        _I64_MIN <= day <= _I64_MAX
    ):
        raise EntryCodecError(
            f"record_id/day outside int64 range: ({record_id}, {day})"
        )


def _encode_info(info, pool: bytearray) -> tuple[int, bytes]:
    """Return ``(tag, payload)`` for one info value, growing ``pool``."""
    if info is None:
        return TAG_NONE, _ZERO_PAYLOAD
    if isinstance(info, bool):
        raise EntryCodecError("bool info is not part of the Entry domain")
    if isinstance(info, int):
        if _I64_MIN <= info <= _I64_MAX:
            return TAG_INT, _I64.pack(info)
        raw = str(info).encode("ascii")
        ref = _POOL_REF.pack(len(pool), len(raw))
        pool.extend(raw)
        return TAG_BIGINT, ref
    if isinstance(info, float):
        return TAG_FLOAT, _F64.pack(info)
    if isinstance(info, str):
        raw = info.encode("utf-8")
        ref = _POOL_REF.pack(len(pool), len(raw))
        pool.extend(raw)
        return TAG_STR, ref
    raise EntryCodecError(f"unencodable info payload: {info!r}")


def encode_entries_object(entries: Sequence[Entry]) -> bytes:
    """Reference encoder: one ``struct.pack`` call per entry."""
    pool = bytearray()
    parts = [b""]  # placeholder for the header
    for e in entries:
        _check_day_fields(e.record_id, e.day)
        tag, payload = _encode_info(e.info, pool)
        parts.append(_RECORD.pack(e.record_id, e.day, tag, payload))
    parts[0] = _HEADER.pack(MAGIC, len(entries), len(pool))
    parts.append(bytes(pool))
    return b"".join(parts)


#: Info types the batch path handles; ``bool`` is not ``int`` here.
_SIMPLE_INFO_TYPES = frozenset({int, type(None)})

_BIG_ENDIAN = sys.byteorder == "big"
_ZERO_WORD = array("q", (0,))

#: ``bytes.translate`` table keeping bytes 0 and 1 and zeroing the rest.
_ZERO_OR_ONE = bytes((0, 1)) + bytes(254)


def encode_records(entries: Sequence[Entry]) -> bytes | None:
    """Column kernel: ``entries``' header-less record run, or ``None``.

    ``zip(*entries)`` transposes the batch into id / day / info columns,
    each column lands in every fourth word of one ``array('q')``, and
    the words are the record run.  ``None`` means the columns cannot
    hold the batch (pool-backed or float infos, a field outside int64):
    the reference path encodes it or raises the codec's own error.
    """
    n = len(entries)
    if not n:
        return b""
    ids, days, infos = zip(*entries)
    all_none = infos.count(None) == n  # the usual batch: tag and payload stay 0
    if not all_none and not set(map(type, infos)) <= _SIMPLE_INFO_TYPES:
        return None
    words = _ZERO_WORD * (4 * n)
    try:
        words[0::4] = array("q", ids)
        words[1::4] = array("q", days)
        if not all_none:
            words[2::4] = array(
                "q", [TAG_NONE if info is None else TAG_INT for info in infos]
            )
            words[3::4] = array("q", [info or 0 for info in infos])
    except (OverflowError, TypeError):
        return None
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tobytes()


def join_records(chunks: Sequence[bytes]) -> bytes:
    """Return the pool-less block whose record run is ``chunks`` joined.

    Each chunk is a whole number of records cut from
    :func:`encode_records` output, so the block equals
    :func:`encode_entries` over the entries the chunks were cut for.
    """
    count = sum(map(len, chunks)) // RECORD_SIZE
    return b"".join((_HEADER.pack(MAGIC, count, 0), *chunks))


def encode_entries(entries: Sequence[Entry]) -> bytes:
    """Batch encoder; byte-identical to :func:`encode_entries_object`."""
    records = encode_records(entries)
    if records is None:
        return encode_entries_object(entries)
    return join_records((records,))


def _parse_header(data: bytes) -> tuple[int, int]:
    if len(data) < _HEADER.size:
        raise EntryCodecError(f"block too short for header: {len(data)}B")
    magic, count, pool_len = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise EntryCodecError(f"bad magic {magic!r}")
    expected = _HEADER.size + count * RECORD_SIZE + pool_len
    if len(data) != expected:
        raise EntryCodecError(
            f"block length {len(data)} != expected {expected} "
            f"({count} records, {pool_len}B pool)"
        )
    return count, pool_len


def _decode_info(tag: int, payload: bytes, pool: bytes):
    if tag == TAG_NONE:
        return None
    if tag == TAG_INT:
        return _I64.unpack(payload)[0]
    if tag == TAG_FLOAT:
        return _F64.unpack(payload)[0]
    if tag in (TAG_STR, TAG_BIGINT):
        offset, length = _POOL_REF.unpack(payload)
        if offset + length > len(pool):
            raise EntryCodecError(
                f"pool reference [{offset}, {offset + length}) outside "
                f"{len(pool)}B pool"
            )
        raw = pool[offset : offset + length]
        return raw.decode("utf-8") if tag == TAG_STR else int(raw)
    raise EntryCodecError(f"unknown info tag {tag}")


def decode_entries_object(data: bytes) -> list[Entry]:
    """Reference decoder: one ``struct.unpack`` call per record."""
    count, pool_len = _parse_header(data)
    records_end = _HEADER.size + count * RECORD_SIZE
    pool = data[records_end:]
    entries: list[Entry] = []
    for offset in range(_HEADER.size, records_end, RECORD_SIZE):
        record_id, day, tag, payload = _RECORD.unpack_from(data, offset)
        entries.append(Entry(record_id, day, _decode_info(tag, payload, pool)))
    return entries


def _column_words(data: bytes | memoryview) -> array | None:
    """Check ``data`` as a block; return its record words if columnar.

    Every check a block gets is made here — magic, count and pool length
    against the block length, then the tag column — so a caller holding
    the words can read any column, or build every entry, without a
    further one.  ``None`` is a well-framed block the columns cannot
    describe: empty, with a pool, or with any tag word other than 0 / 1
    (floats, unknown tags, dirty padding); the reference path decodes it
    or raises.

    ``data`` is any bytes-like object, read in place: the one copy is
    into the words.  The tag words are checked on their wire bytes,
    before any byteswap, by C-level byte comparisons: a word is 0 or 1
    when its low byte — the first of its eight on the little-endian wire
    — is, and its seven others are 0.
    """
    count, pool_len = _parse_header(data)
    if not count or pool_len:
        return None
    words = array("q")
    words.frombytes(memoryview(data)[_HEADER.size :])
    tags = words[2::4]
    # The tag bytes if every info is None (a bytearray compares with any
    # buffer, byte for byte); failing that, what they are if every word
    # is 0 or 1: each low byte kept where it is 0 or 1, every other 0.
    valid = bytearray(8 * count)
    if valid != tags:
        valid[::8] = tags.tobytes()[::8].translate(_ZERO_OR_ONE)
        if valid != tags:
            return None
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def _entries_of_words(words: array) -> Iterator[Entry]:
    """Batch decode kernel over checked record words.

    Iterating an ``array('q')`` yields plain Python ints, so decoded
    entries are indistinguishable (``==`` and ``type``-wise) from the
    reference path's.
    """
    tags = words[2::4]
    if bytearray(8 * len(tags)) == tags:  # every tag word 0, as bytes
        infos = repeat(None)
    else:
        infos = [
            payload if tag else None
            for tag, payload in zip(tags, words[3::4])
        ]
    # ``Entry._make`` without its Python frame: zip only yields 3-tuples.
    return map(tuple.__new__, repeat(Entry), zip(words[0::4], words[1::4], infos))


def decode_entries(data: bytes) -> list[Entry]:
    """Batch decoder; value-identical to :func:`decode_entries_object`.

    The record run is read as int64 words and split into columns by
    strided slices; blocks the columns cannot describe defer to the
    reference path.
    """
    words = _column_words(data)
    if words is None:
        return decode_entries_object(data)
    return list(_entries_of_words(words))


class EntryBlock(Sequence):
    """One checked columnar block, read as the entries it encodes.

    A ``Sequence[Entry]`` that compares, hashes and prints as the tuple
    :func:`decode_entries` would have built, and builds that tuple — by
    the same kernel, once — only when an entry is first asked for.
    ``len`` and the two columns a timed probe's caller usually wants,
    :attr:`record_ids` and :attr:`days`, are read straight from the
    record words.  Nothing here can raise on account of the block:
    :func:`read_block` checked all of it before making the view.
    """

    __slots__ = ("_words", "_entries")

    def __init__(self, words: array) -> None:
        self._words = words
        self._entries: tuple[Entry, ...] | None = None

    @property
    def record_ids(self) -> array:
        """Return the record-id column as an ``array('q')``."""
        return self._words[0::4]

    @property
    def days(self) -> array:
        """Return the insert-day column as an ``array('q')``."""
        return self._words[1::4]

    @property
    def materialised(self) -> bool:
        """Return ``True`` once the entry tuple has been built."""
        return self._entries is not None

    def _tuple(self) -> tuple[Entry, ...]:
        entries = self._entries
        if entries is None:
            entries = self._entries = tuple(_entries_of_words(self._words))
        return entries

    def __len__(self) -> int:
        return len(self._words) // 4

    def __getitem__(self, index):
        return self._tuple()[index]

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._tuple())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EntryBlock):
            other = other._tuple()
        return self._tuple() == other

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())


def read_block(data: bytes | memoryview) -> Sequence[Entry]:
    """Check ``data`` completely; return its entries, decoded on access.

    ``data`` is any bytes-like object; a result frame hands over a
    ``memoryview`` of its payload.  A columnar block (the batch
    encoder's output) is checked in place and comes back as an
    :class:`EntryBlock` over one copy of its words; any other
    well-formed block is decoded here and now by the reference path
    (from ``bytes``: its pool is text) into a plain tuple.  Either way
    everything that can be wrong with ``data`` raises from this call,
    never from reading what it returned.
    """
    words = _column_words(data)
    if words is None:
        return tuple(decode_entries_object(bytes(data)))
    return EntryBlock(words)


def encoded_size(n_entries: int, pool_bytes: int = 0) -> int:
    """Return the block size for ``n_entries`` fixed records + pool."""
    return _HEADER.size + n_entries * RECORD_SIZE + pool_bytes

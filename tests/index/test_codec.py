"""Round-trip and path-equivalence proofs for the batch entry codec.

The contract under test (`repro.index.codec`): the batch encoder and the
per-entry reference encoder produce **byte-identical** blocks, both
decoders recover the **identical** entry list (values and types), and
malformed blocks or unencodable entries fail loudly.
"""

import struct
from array import array
from collections.abc import Sequence
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import codec
from repro.index.entry import Entry
from tests.reference import codec as reference_codec

I64 = 2**63

record_ids = st.integers(min_value=-(2**63), max_value=2**63 - 1)
days = st.integers(min_value=-(2**63), max_value=2**63 - 1)
infos = st.one_of(
    st.none(),
    st.integers(),  # includes out-of-int64 values (pool-backed)
    st.floats(allow_nan=False),
    st.text(max_size=40),
)
entry_lists = st.lists(
    st.builds(Entry, record_ids, days, infos), max_size=60
)


@given(entry_lists)
@settings(max_examples=200)
def test_batch_encoder_is_byte_identical_to_reference(entries):
    assert codec.encode_entries(entries) == codec.encode_entries_object(entries)


@given(entry_lists)
@settings(max_examples=200)
def test_round_trip_recovers_identical_entries(entries):
    block = codec.encode_entries_object(entries)
    for decode in (codec.decode_entries_object, codec.decode_entries):
        got = decode(block)
        assert got == entries
        for original, decoded in zip(entries, got):
            assert type(decoded.info) is type(original.info)


@given(entry_lists)
@settings(max_examples=100)
def test_batch_decoder_agrees_with_reference(entries):
    block = codec.encode_entries(entries)
    assert codec.decode_entries(block) == codec.decode_entries_object(block)


# The batch kernel proper runs only when every info is None or an int64;
# the mixed lists above mostly fall through to the reference path.
batch_entry_lists = st.lists(
    st.builds(
        Entry, record_ids, days,
        st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)),
    ),
    max_size=200,
)


@given(batch_entry_lists, st.sampled_from((list, tuple)))
@settings(max_examples=100)
def test_batch_kernel_matches_reference_on_none_and_int64_infos(entries, seq):
    reference = codec.encode_entries_object(entries)
    assert codec.encode_entries(seq(entries)) == reference
    got = codec.decode_entries(reference)
    assert got == codec.decode_entries_object(reference) == entries
    assert all(type(e) is Entry for e in got)
    assert [type(e.info) for e in got] == [type(e.info) for e in entries]


@pytest.mark.parametrize(
    "entries",
    [
        [],
        [Entry(7, 3, None)],
        [Entry(7, 3, 0)],
        [Entry(7, 3, -(2**63))],
        [Entry(-(2**63), 2**63 - 1, 2**63 - 1)],
        [Entry(1, 1, None), Entry(2, 1, None)],
        [Entry(1, 1, 5), Entry(2, 1, 0)],
        [Entry(1, 1, None), Entry(2, 1, 0), Entry(3, 2, None), Entry(4, 2, 9)],
    ],
    ids=["n0", "n1-none", "n1-zero", "n1-min", "extremes", "all-none",
         "all-int", "mixed"],
)
def test_batch_kernel_edge_sizes_and_info_mixes(entries):
    reference = codec.encode_entries_object(entries)
    assert codec.encode_entries(entries) == reference
    assert len(reference) == codec.encoded_size(len(entries))
    got = codec.decode_entries(reference)
    assert got == codec.decode_entries_object(reference) == entries
    assert [e.info for e in got] == [e.info for e in entries]  # 0 is not None


@given(
    batch_entry_lists,
    st.integers(min_value=0, max_value=199),
    st.sampled_from((2**63, -(2**63) - 1, 2**200)),
    st.sampled_from(("record_id", "day")),
)
@settings(max_examples=50)
def test_out_of_int64_field_is_rejected_at_any_position(
    entries, position, wide, field
):
    entries.insert(
        min(position, len(entries)), Entry(1, 1, None)._replace(**{field: wide})
    )
    for encode in (codec.encode_entries, codec.encode_entries_object):
        with pytest.raises(codec.EntryCodecError):
            encode(entries)


def test_blocks_the_columns_cannot_hold_decode_like_the_reference():
    block = bytearray(codec.encode_entries([Entry(1, 2, 3), Entry(4, 5, None)]))
    # Dirty padding after the tag byte: the reference ignores it.
    block[codec._HEADER.size + 17] = 0xAB
    assert codec.decode_entries(bytes(block)) == [Entry(1, 2, 3), Entry(4, 5, None)]
    # A float needs no pool, so a pool-less block is not a batch block.
    floats = codec.encode_entries_object([Entry(1, 2, 1.5), Entry(4, 5, 6)])
    assert codec.decode_entries(floats) == [Entry(1, 2, 1.5), Entry(4, 5, 6)]
    assert type(codec.decode_entries(floats)[0].info) is float


def test_none_info_round_trips():
    entries = [Entry(1, 2, None), Entry(3, 4, None), Entry(5, 6, None)]
    block = codec.encode_entries(entries)
    assert codec.decode_entries(block) == entries
    assert codec.decode_entries(block)[0].info is None


def test_mixed_info_types_round_trip():
    entries = [
        Entry(1, 1, None),
        Entry(2, 1, 42),
        Entry(3, 2, -7),
        Entry(4, 2, 3.5),
        Entry(5, 3, "häßlich ünïcode"),
        Entry(6, 3, 10**30),
        Entry(7, 4, -(10**30)),
        Entry(8, 4, ""),
    ]
    block = codec.encode_entries(entries)
    assert block == codec.encode_entries_object(entries)
    got = codec.decode_entries(block)
    assert got == entries
    assert [type(e.info) for e in got] == [type(e.info) for e in entries]


def test_block_layout_is_fixed_width():
    entries = [Entry(i, i, i) for i in range(5)]
    block = codec.encode_entries(entries)
    assert block[:4] == codec.MAGIC
    assert len(block) == codec.encoded_size(5)
    with_pool = codec.encode_entries([Entry(1, 1, "abc")])
    assert len(with_pool) == codec.encoded_size(1, 3)


def test_empty_list_round_trips():
    block = codec.encode_entries([])
    assert codec.decode_entries(block) == []
    assert len(block) == codec.encoded_size(0)


def test_bool_info_is_rejected():
    with pytest.raises(codec.EntryCodecError):
        codec.encode_entries_object([Entry(1, 1, True)])
    # The batch path must reject it too, not silently encode as int.
    with pytest.raises(codec.EntryCodecError):
        codec.encode_entries([Entry(1, 1, True), Entry(2, 2, False)])


def test_unencodable_info_is_rejected():
    with pytest.raises(codec.EntryCodecError):
        codec.encode_entries([Entry(1, 1, [1, 2])])


def test_out_of_range_record_id_is_rejected():
    with pytest.raises(codec.EntryCodecError):
        codec.encode_entries([Entry(I64, 1, None), Entry(1, 1, None)])
    with pytest.raises(codec.EntryCodecError):
        codec.encode_entries([Entry(1, -I64 - 1, None), Entry(1, 1, None)])


def test_truncated_block_is_rejected():
    block = codec.encode_entries([Entry(1, 1, 2), Entry(3, 4, 5)])
    with pytest.raises(codec.EntryCodecError):
        codec.decode_entries(block[:-1])
    with pytest.raises(codec.EntryCodecError):
        codec.decode_entries(block[: codec._HEADER.size - 1])


def test_bad_magic_is_rejected():
    block = codec.encode_entries([Entry(1, 1, 2), Entry(3, 4, 5)])
    with pytest.raises(codec.EntryCodecError):
        codec.decode_entries(b"XXXX" + block[4:])


def test_unknown_tag_is_rejected():
    block = bytearray(codec.encode_entries([Entry(1, 1, 2), Entry(3, 4, 5)]))
    block[codec._HEADER.size + 16] = 99
    with pytest.raises(codec.EntryCodecError):
        codec.decode_entries(bytes(block))
    with pytest.raises(codec.EntryCodecError):
        codec.decode_entries_object(bytes(block))


def test_pool_reference_outside_pool_is_rejected():
    block = bytearray(codec.encode_entries_object([Entry(1, 1, "ab")]))
    # Inflate the pool-ref length field far past the 2-byte pool.
    offset = codec._HEADER.size + 24
    struct.pack_into("<II", block, offset, 0, 9999)
    with pytest.raises(codec.EntryCodecError):
        codec.decode_entries_object(bytes(block))


# ----------------------------------------------------------------------
# EntryBlock: the block read as the tuple it encodes
# ----------------------------------------------------------------------


def block_of(entries):
    block = codec.read_block(codec.encode_entries(entries))
    assert isinstance(block, codec.EntryBlock) or not entries
    return block


@contextmanager
def counted_decodes():
    """Count runs of the batch decode kernel."""
    calls = []
    real = codec._entries_of_words

    def counted(words):
        calls.append(len(words) // 4)
        return real(words)

    with mock.patch.object(codec, "_entries_of_words", counted):
        yield calls


nonempty_batches = st.lists(
    st.builds(
        Entry, record_ids, days,
        st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)),
    ),
    min_size=1, max_size=60,
)


@given(nonempty_batches, st.data())
@settings(max_examples=150)
def test_entry_block_is_the_tuple_it_encodes(entries, data):
    want = tuple(entries)
    block = block_of(entries)
    assert isinstance(block, Sequence) and not isinstance(block, tuple)
    assert len(block) == len(want)
    assert list(block) == entries and tuple(block) == want
    assert list(reversed(block)) == entries[::-1]
    i = data.draw(st.integers(-len(want), len(want) - 1))
    a, b = sorted(data.draw(st.tuples(st.integers(-70, 70), st.integers(-70, 70))))
    assert block[i] == want[i]
    assert block[a:b] == want[a:b] and type(block[a:b]) is tuple
    assert block[::-2] == want[::-2]
    with pytest.raises(IndexError):
        block[len(want)]
    probe = data.draw(st.sampled_from(entries))
    absent = Entry(probe.record_id, probe.day, "not an info of this domain")
    assert probe in block and absent not in block
    assert block.count(probe) == want.count(probe) and block.count(absent) == 0
    assert block.index(probe) == want.index(probe)
    with pytest.raises(ValueError):
        block.index(absent)
    # Equality and hashing agree with the tuple, whichever side asks.
    assert block == want and want == block
    assert not block != want and not want != block
    assert block == block_of(entries) and hash(block) == hash(want)
    assert block != want + (probe,) and want[:-1] != block
    assert block != entries and block != None  # noqa: E711 - a tuple is no list
    assert {block: 1}[want] == 1 and {want: 1}[block] == 1
    assert sorted(block, key=repr) == sorted(want, key=repr)
    assert set(block) == set(want)
    assert repr(block) == repr(want)
    # Columns, and the exact types a decoded entry has.
    assert tuple(block.record_ids) == tuple(e.record_id for e in want)
    assert tuple(block.days) == tuple(e.day for e in want)
    assert block.record_ids.typecode == block.days.typecode == "q"
    assert all(type(e) is Entry for e in block)
    assert [type(e.info) for e in block] == [type(e.info) for e in want]
    assert all(type(e.record_id) is int and type(e.day) is int for e in block)


@given(nonempty_batches)
@settings(max_examples=50)
def test_entry_block_decodes_once_and_only_for_entries(entries):
    with counted_decodes() as decodes:
        block = block_of(entries)
        assert not block.materialised
        assert len(block) == len(entries)
        assert list(block.record_ids) == [e.record_id for e in entries]
        assert list(block.days) == [e.day for e in entries]
        assert decodes == [] and not block.materialised  # columns, len: no decode
        assert list(block) == entries
        assert decodes == [len(entries)] and block.materialised
        assert list(block) == entries and block[0] == entries[0]
        assert block == tuple(entries) and hash(block) == hash(tuple(entries))
        assert set(block) == set(entries)
        assert decodes == [len(entries)]  # a second reading decodes nothing


def test_blocks_the_columns_cannot_describe_are_read_as_plain_tuples():
    for entries in (
        [],
        [Entry(1, 2, 1.5), Entry(4, 5, 6)],
        [Entry(1, 2, "x")],
        [Entry(1, 2, 2**70)],
    ):
        got = codec.read_block(codec.encode_entries(entries))
        assert type(got) is tuple and got == tuple(entries)
        assert [type(e.info) for e in got] == [type(e.info) for e in entries]
    dirty = bytearray(codec.encode_entries([Entry(1, 2, 3), Entry(4, 5, None)]))
    dirty[codec._HEADER.size + 17] = 0xAB  # padding the reference ignores
    assert codec.read_block(bytes(dirty)) == (Entry(1, 2, 3), Entry(4, 5, None))
    assert type(codec.read_block(bytes(dirty))) is tuple


def test_read_block_makes_every_check_before_it_returns():
    block = codec.encode_entries([Entry(1, 1, 2), Entry(3, 4, 5)])
    for bad in (
        block[:-1],
        block[: codec._HEADER.size - 1],
        b"XXXX" + block[4:],
        block + b"\x00",
    ):
        with pytest.raises(codec.EntryCodecError):
            codec.read_block(bad)
    unknown_tag = bytearray(block)
    unknown_tag[codec._HEADER.size + 16] = 99
    with pytest.raises(codec.EntryCodecError):
        codec.read_block(bytes(unknown_tag))


def test_record_run_kernel_and_join_agree_with_the_block_encoder():
    entries = [Entry(i, i // 3, None if i % 2 else i) for i in range(12)]
    records = codec.encode_records(entries)
    assert len(records) == codec.RECORD_SIZE * len(entries)
    assert codec.join_records((records,)) == codec.encode_entries_object(entries)
    cuts = [records[32 * 2 : 32 * 5], records[32 * 7 : 32 * 12]]
    assert codec.join_records(cuts) == codec.encode_entries_object(
        entries[2:5] + entries[7:12]
    )
    assert codec.join_records(()) == codec.encode_entries_object([])
    assert codec.encode_records([]) == b""
    assert codec.encode_records([Entry(1, 1, "pool")]) is None
    assert codec.encode_records([Entry(1, 1, 1.5)]) is None
    assert codec.encode_records([Entry(2**63, 1, None)]) is None
    assert codec.encode_records([Entry(1, 1, True)]) is None


# ----------------------------------------------------------------------
# The tag check on bytes, against the count it replaced
# ----------------------------------------------------------------------

int64s = st.integers(-(2**63), 2**63 - 1)
#: Tag words that are no tag 0 or 1: a float's, an unknown tag, dirty
#: padding over tag 0 and over tag 1 (a pad byte of 1, of 2, of 0xFF, the
#: sign bit alone), every byte set, every bit but the sign.
DIRTY_TAG_WORDS = (
    2, 255, 256, 257, 0x200, 0xFF01, -(2**63), -(2**63) + 1, -1, 2**63 - 1,
)


@st.composite
def tag_columns(draw) -> list[int]:
    """Tag words of 0 and 1 (sometimes all 0), a few then overwritten."""
    n = draw(st.integers(min_value=1, max_value=40))
    tags = draw(st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n))
    if draw(st.booleans()):
        tags = [codec.TAG_NONE] * n
    dirt = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.one_of(st.sampled_from(DIRTY_TAG_WORDS), int64s),
    )
    for at, word in draw(st.lists(dirt, max_size=3)):
        tags[at] = word
    return tags


def block_of_words(rows) -> bytes:
    """A pool-less block whose records are the int64 words ``rows``."""
    words = array("q", [word for row in rows for word in row])
    if codec._BIG_ENDIAN:
        words.byteswap()
    return codec._HEADER.pack(codec.MAGIC, len(rows), 0) + words.tobytes()


@given(tag_columns(), st.data())
@settings(max_examples=max(200, settings().max_examples))
def test_the_tag_check_accepts_exactly_what_the_count_accepted(tags, data):
    n = len(tags)
    fields = data.draw(st.lists(int64s, min_size=3 * n, max_size=3 * n))
    rows = zip(fields[0::3], fields[1::3], tags, fields[2::3])
    block = block_of_words(list(rows))
    oracle = reference_codec.column_words(block)
    words = codec._column_words(block)
    assert (words is None) == (oracle is None)
    assert words == oracle
    try:
        want = tuple(codec.decode_entries_object(block))
    except ValueError:  # an unknown tag, a pool reference past the pool
        want = None
    # As a decoder gets it, and as a result frame hands it over: a view
    # into a larger payload.
    for given_as in (block, memoryview(b"\xc1" * 7 + block)[7:]):
        if want is None:
            with pytest.raises(ValueError):
                codec.read_block(given_as)
            continue
        got = codec.read_block(given_as)
        assert isinstance(got, codec.EntryBlock) == (oracle is not None)
        assert repr(got) == repr(want)  # a float tag's payload may be NaN
        assert [type(e.info) for e in got] == [type(e.info) for e in want]

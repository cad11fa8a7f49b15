"""The count-based column check: what a columnar block was before.

How ``repro.index.codec`` told a block the columns can describe from one
the reference decoder must read, before the tag words were checked on
their bytes: copy the record run into ``array('q')`` words, byteswap on
a big-endian host, and count the tag words that are 0 or 1.  Kept word
for word as the oracle of ``codec._column_words``: on any block, the
columnar path must be taken exactly when :func:`column_words` returns
words, and decode to the same entries
(``tests/index/test_codec.py``).
"""

from array import array

from repro.index import codec


def column_words(data: bytes) -> array | None:
    """Return ``data``'s record words if every tag word is 0 or 1."""
    count, pool_len = codec._parse_header(data)
    if not count or pool_len:
        return None
    words = array("q")
    words.frombytes(memoryview(data)[codec._HEADER.size :])
    if codec._BIG_ENDIAN:
        words.byteswap()
    tags = words[2::4]
    if tags.count(codec.TAG_NONE) + tags.count(codec.TAG_INT) != count:
        return None
    return words

"""Tests for extent handles."""

import pytest

from repro.errors import ExtentError
from repro.storage.extent import Extent


class TestExtent:
    def test_end(self):
        assert Extent(offset=100, size=40).end == 140

    def test_ids_are_unique(self):
        a, b = Extent(0, 10), Extent(0, 10)
        assert a.extent_id != b.extent_id

    def test_check_live_passes_when_live(self):
        Extent(0, 10).check_live()

    def test_check_live_raises_after_free(self):
        ext = Extent(0, 10)
        ext.live = False
        with pytest.raises(ExtentError):
            ext.check_live()

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ((0, 10), (10, 10), False),  # adjacent, not overlapping
            ((0, 10), (5, 10), True),
            ((5, 10), (0, 10), True),
            ((0, 10), (0, 10), True),
            ((0, 10), (20, 5), False),
            ((3, 4), (0, 20), True),  # containment
        ],
    )
    def test_overlaps(self, a, b, expected):
        ea = Extent(offset=a[0], size=a[1])
        eb = Extent(offset=b[0], size=b[1])
        assert ea.overlaps(eb) is expected
        assert eb.overlaps(ea) is expected

    def test_zero_size_extent(self):
        ext = Extent(offset=7, size=0)
        assert ext.end == 7
        assert not ext.overlaps(Extent(0, 100))

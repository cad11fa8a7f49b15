"""Tests for bucket bookkeeping."""

from repro.index import kernels
from repro.index.bucket import Bucket
from repro.index.entry import Entry
from repro.storage.extent import Extent
from tests.reference.delete import remove_days


def make_bucket(entries, capacity=10, shared=False):
    return Bucket(
        value="v",
        entries=list(entries),
        extent=Extent(offset=0, size=capacity * 16),
        shared=shared,
        capacity_entries=capacity,
    )


class TestBucket:
    def test_counts_and_bytes(self):
        bucket = make_bucket([Entry(1, 1), Entry(2, 2)], capacity=10)
        assert bucket.live_count == 2
        assert bucket.used_bytes(16) == 32
        assert bucket.capacity_bytes(16) == 160
        assert bucket.free_entries() == 8

    def test_fits(self):
        bucket = make_bucket([Entry(1, 1)], capacity=3)
        assert bucket.fits(2)
        assert not bucket.fits(3)

    def test_shared_never_fits(self):
        bucket = make_bucket([Entry(1, 1)], capacity=5, shared=True)
        assert not bucket.fits(1)

    def test_remove_days(self):
        bucket = make_bucket([Entry(1, 1), Entry(2, 2), Entry(3, 1)])
        removed = remove_days(bucket, {1})
        assert removed == 2
        assert [e.record_id for e in bucket.entries] == [2]

    def test_remove_no_match(self):
        bucket = make_bucket([Entry(1, 1)])
        assert remove_days(bucket, {9}) == 0
        assert bucket.live_count == 1

    def test_select_range(self):
        bucket = make_bucket([Entry(i, i) for i in range(1, 6)])
        selected, _ = kernels.select(bucket.run(), 2, 4)
        assert [e.record_id for e in selected] == [2, 3, 4]

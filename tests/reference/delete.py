"""The in-place delete as it was, in two forms.

:func:`delete_days_two_pass` is how ``ConstituentIndex.delete_days`` walked
a directory before it made the kept list once and compared lengths:
``Bucket.touches_days`` (through ``kernels.bucket_touches_days``) to ask
*whether* a day is there, then ``Bucket.remove_days`` to drop it, with
``allocated_bytes`` recounted from the directory.  It must leave the same
entries, extents, clock and I/O counters as the method on a twin
(``tests/index/test_private_bytes.py``).

:func:`delete_days_comprehension` is the one-pass method before it cut
on the readers' day column: every bucket's kept list is the comprehension
over its entries, run or no run.  The cut must keep the same lists and
leave the same clock, counters, cache and LRU order
(``tests/index/test_delete_cut.py``).

:func:`delete_days_on_runs` is the method before buckets stored their
day column as run lengths: it cut a bucket on the day column of the run
its readers had left, when that run was current and sorted
(:func:`cut_days`, two bisects a deleted day), and took the
comprehension otherwise.  The cut by offset must keep the same lists
and leave the same clock, counters, cache and LRU order
(``tests/index/test_delete_cut.py``).

All three are kept as they were, as functions of a bucket or an index.
"""

from bisect import bisect_left, bisect_right


def bucket_touches_days(bucket, days):
    """Return ``True`` if any live entry's insert day is in ``days``.

    Equivalent to ``any(e.day in days for e in bucket.entries)``; consults
    the run's column (with a min/max prune) instead of the entry objects
    when the bucket has a current run.
    """
    entries = bucket.entries
    if not days or not entries:
        return False
    run = bucket._run
    if run is None or len(run.days) != len(entries):
        return any(e.day in days for e in entries)
    if max(days) < run.lo or min(days) > run.hi:
        return False
    return any(day in days for day in run.days)


def remove_days(bucket, days):
    """Drop entries whose insert day is in ``days``; return how many."""
    before = len(bucket.entries)
    bucket.replace_entries([e for e in bucket.entries if e.day not in days])
    return before - len(bucket.entries)


def recounted_bytes(index):
    """Return ``allocated_bytes`` as a walk over the index's extents."""
    return sum(extent.size for extent in index.referenced_extents())


def delete_days_two_pass(index, days):
    """``ConstituentIndex.delete_days`` as it was."""
    index._check_not_dropped()
    index._invalidate_derived()
    index._unpack()
    day_set = set(days)
    if not day_set:
        return 0.0
    start = index.disk.clock
    entry_size = index.config.entry_size_bytes
    policy = index.config.contiguous
    seek = index.disk.effective_seeks(1.0, float(recounted_bytes(index)))
    removed_any = False
    for value, bucket in list(index.directory.items()):
        if not bucket_touches_days(bucket, day_set):
            continue
        removed_any = True
        before = bucket.live_count
        if bucket.shared:
            index.disk.read(
                index._shared_extent,
                before * entry_size,
                seeks=seek,
                offset=bucket.offset_in_extent,
            )
            remove_days(bucket, day_set)
            index.disk.write(
                index._shared_extent,
                bucket.live_count * entry_size,
                seeks=seek,
                offset=bucket.offset_in_extent,
            )
        else:
            index.disk.read(bucket.extent, before * entry_size, seeks=seek)
            remove_days(bucket, day_set)
            index.disk.write(
                bucket.extent, bucket.live_count * entry_size, seeks=seek
            )
        if bucket.live_count == 0:
            index._retire_bucket(value, bucket)
        elif not bucket.shared and policy.should_shrink(
            bucket.capacity_entries, bucket.live_count
        ):
            index._shrink_bucket(bucket)
    index.time_set.difference_update(day_set)
    if removed_any:
        index.packed = False
    return index.disk.clock - start


def delete_days_comprehension(index, days):
    """``ConstituentIndex.delete_days`` before the day-column cut."""
    index._check_not_dropped()
    index._invalidate_derived()
    index._unpack()
    day_set = set(days)
    if not day_set:
        return 0.0
    start = index.disk.clock
    entry_size = index.config.entry_size_bytes
    policy = index.config.contiguous
    # As in insert_postings: the working set is explicit (0 bytes is a
    # real working set, not a streaming marker).
    seek = index.disk.effective_seeks(1.0, float(index.allocated_bytes))
    removed_any = False
    read, write = index.disk.read, index.disk.write
    for value, bucket in list(index.directory.items()):
        entries = bucket.entries
        kept = [e for e in entries if e.day not in day_set]
        if len(kept) == len(entries):
            continue
        removed_any = True
        # Read the bucket as it was, compact it, write it back in
        # place: a fault on the read leaves the entries untouched, one
        # on the write leaves them compacted.
        extent, offset = index._bucket_position(bucket)
        read(extent, len(entries) * entry_size, seeks=seek, offset=offset)
        bucket.replace_entries(kept)
        write(extent, len(kept) * entry_size, seeks=seek, offset=offset)
        if not kept:
            index._retire_bucket(value, bucket)
        elif not bucket.shared and policy.should_shrink(
            bucket.capacity_entries, len(kept)
        ):
            index._shrink_bucket(bucket)
    index.time_set.difference_update(day_set)
    if removed_any:
        # Holes (packed) or slack (contiguous) remain: no longer packed.
        index.packed = False
    return index.disk.clock - start


def cut_days(entries, column, ordered):
    """Return ``entries`` less those whose insert day is in ``ordered``.

    ``column`` is ``entries``' day column, non-decreasing; ``ordered`` is
    the deleted days, ascending.  Each deleted day is the span
    ``[bisect_left, bisect_right)`` of the column, and the kept list is
    the slices between spans: the comprehension's elements, in order.
    Returns ``entries`` itself when nothing is cut, else a new list.
    """
    kept = None
    start = 0
    for day in ordered:
        lo = bisect_left(column, day, start)
        hi = bisect_right(column, day, lo)
        if lo == hi:
            continue
        if kept is None:
            kept = entries[:lo]
        else:
            kept += entries[start:lo]
        start = hi
    if kept is None:
        return entries
    kept += entries[start:]
    return kept


def delete_days_on_runs(index, days):
    """``ConstituentIndex.delete_days`` cutting on the readers' runs."""
    index._check_not_dropped()
    index._invalidate_derived()
    index._unpack()
    day_set = set(days)
    if not day_set:
        return 0.0
    start = index.disk.clock
    entry_size = index.config.entry_size_bytes
    policy = index.config.contiguous
    seek = index.disk.effective_seeks(1.0, float(index.allocated_bytes))
    removed_any = False
    read, write = index.disk.read, index.disk.write
    ordered = sorted(day_set)
    first, last = ordered[0], ordered[-1]
    for value, bucket in list(index.directory.items()):
        entries = bucket.entries
        # The run a reader left, if it is current (Bucket.run()'s
        # rule); the delete never builds one.
        run = bucket._run
        if run is None or len(run.days) != len(entries) or not run.sorted:
            kept = [e for e in entries if e.day not in day_set]
        elif last < run.lo or first > run.hi:
            continue
        else:
            kept = cut_days(entries, run.days, ordered)
        if len(kept) == len(entries):
            continue
        removed_any = True
        if bucket.shared:
            extent, offset = index._shared_extent, bucket.offset_in_extent
        else:
            extent, offset = bucket.extent, 0
        read(extent, len(entries) * entry_size, seeks=seek, offset=offset)
        bucket.replace_entries(kept)
        write(extent, len(kept) * entry_size, seeks=seek, offset=offset)
        if not kept:
            index._retire_bucket(value, bucket)
        elif not bucket.shared and policy.should_shrink(
            bucket.capacity_entries, len(kept)
        ):
            index._shrink_bucket(bucket)
    index.time_set.difference_update(day_set)
    if removed_any:
        index.packed = False
    return index.disk.clock - start

"""Shard rebalancing: cross-device moves, cost charging, cache safety.

The move is a packed-shadow-style copy charged to both devices' clocks.
The cache-safety suite is the regression net for a subtle hazard: the
move frees the source extents, and if the page cache kept their pages, a
later allocation recycling those byte offsets could be served stale data.
Extent-identity keys plus free-time invalidation must make that
impossible — asserted here end to end through the rebalance path.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation, copy_index_to
from repro.core.schemes import scheme_by_name
from repro.sim.querygen import QueryWorkload
from repro.storage.disk import SimulatedDisk
from tests.conftest import make_store

W, N, LAST = 8, 2, 12
VALUES = "abcdefgh"


def _workload():
    return QueryWorkload(
        probes_per_day=4,
        scans_per_day=1,
        value_picker=lambda rng: rng.choice(VALUES),
        seed=3,
    )


def _build(page_cache_bytes=None):
    return ClusterSimulation(
        lambda: scheme_by_name("REINDEX")(W, N),
        make_store(LAST),
        queries=_workload(),
        cluster=ClusterConfig(
            n_shards=2,
            replication=1,
            page_cache_bytes=page_cache_bytes,
            page_size=1 << 10 if page_cache_bytes else None,
        ),
    )


class TestCopyIndexTo:
    def test_copy_preserves_postings_and_packs(self):
        sim = _build()
        sim.run(LAST)
        replica = sim.shards[0].primary
        name, index = next(iter(replica.wave.bindings.items()))
        target = SimulatedDisk()
        clone = copy_index_to(index, target)
        assert clone.disk is target
        assert clone.name == index.name
        assert clone.time_set == index.time_set

        def postings(ix):
            return sorted(
                (b.value, e.record_id, e.day)
                for b in ix.buckets()
                for e in b.entries
            )

        assert postings(clone) == postings(index)
        if postings(index):
            assert clone.packed
            assert clone.allocated_bytes == clone.used_bytes
        # The source index is untouched — the caller does the swap.
        assert index.allocated_bytes > 0 or not postings(index)

    def test_copy_charges_both_device_clocks(self):
        sim = _build()
        sim.run(LAST)
        replica = sim.shards[0].primary
        index = max(
            replica.wave.bindings.values(), key=lambda ix: ix.used_bytes
        )
        target = SimulatedDisk()
        source_before = replica.device.clock
        copy_index_to(index, target)
        assert replica.device.clock > source_before
        assert target.clock > 0.0


class TestRebalanceShard:
    def test_move_keeps_answers_and_frees_source(self):
        sim = _build()
        sim.run(LAST)
        lo, hi = LAST - W + 1, LAST
        before = sim.coordinator.probe_many([(v, lo, hi) for v in VALUES])
        source = sim.array.devices[0]
        source_live_before = source.live_bytes
        report = sim.rebalance_shard(0, to_device=1)
        assert report.from_device == 0
        assert report.to_device == 1
        assert report.indexes_moved > 0
        assert report.bytes_moved > 0
        assert report.seconds > 0.0
        assert report.source_read_seconds > 0.0
        assert report.target_write_seconds > 0.0
        # The shard's bytes left the source device...
        assert source.live_bytes < source_live_before
        replica = sim.shards[0].replicas[0]
        assert replica.device is sim.array.devices[1]
        # ...and every answer survives the move bit for bit.
        after = sim.coordinator.probe_many([(v, lo, hi) for v in VALUES])
        for mine, theirs in zip(after, before):
            assert mine.record_ids == theirs.record_ids
            assert mine.missing_days == theirs.missing_days

    def test_maintenance_continues_on_target_device(self):
        sim = _build()
        sim.run_start()
        sim.rebalance_shard(0, to_device=1)
        target = sim.array.devices[1]
        clock_before = target.clock
        sim.run_transition(W + 1)
        assert target.clock > clock_before
        # The executor's span moved with the replica: the constituent
        # REINDEX rebuilt after the move lives on the target device too.
        wave = sim.shards[0].replicas[0].wave
        assert all(index.disk is target for index in wave.live_constituents())
        sim.array.check_invariants()

    def test_move_to_same_device_rejected(self):
        from repro.errors import ClusterError

        sim = _build()
        sim.run_start()
        with pytest.raises(ClusterError):
            sim.rebalance_shard(0, to_device=0)
        with pytest.raises(ClusterError):
            sim.rebalance_shard(0, to_device=99)
        with pytest.raises(ClusterError):
            sim.rebalance_shard(99, to_device=1)


class TestCacheInvalidationOnMove:
    def test_freed_extents_leave_no_resident_pages(self):
        sim = _build(page_cache_bytes=1 << 20)
        sim.run(LAST)
        source = sim.array.devices[0]
        cache = source.page_cache
        lo, hi = LAST - W + 1, LAST
        # Warm the source cache through real serving.
        sim.coordinator.probe_many([(v, lo, hi) for v in VALUES])
        sim.coordinator.probe_many([(v, lo, hi) for v in VALUES])
        assert cache.resident_pages > 0
        old_extents = [
            ix._shared_extent
            for ix in sim.shards[0].replicas[0].wave.bindings.values()
            if ix._shared_extent is not None
        ]
        sim.rebalance_shard(0, to_device=1)
        # Shard 0 was this device's only tenant: nothing may remain.
        assert cache.resident_pages == 0
        for extent in old_extents:
            assert not extent.live

    def test_recycled_offsets_never_serve_stale_pages(self):
        # The satellite-3 hazard: free a cached extent via the move, then
        # reallocate the same byte range at a *different offset alignment*
        # and read it.  Offset-aware (extent-identity) tracking must treat
        # the new extent as cold — first read misses, no stale hits.
        sim = _build(page_cache_bytes=1 << 20)
        sim.run(LAST)
        source = sim.array.devices[0]
        cache = source.page_cache
        lo, hi = LAST - W + 1, LAST
        sim.coordinator.probe_many([(v, lo, hi) for v in VALUES])
        sim.coordinator.probe_many([(v, lo, hi) for v in VALUES])
        old_offsets = {
            ix._shared_extent.offset
            for ix in sim.shards[0].replicas[0].wave.bindings.values()
            if ix._shared_extent is not None
        }
        sim.rebalance_shard(0, to_device=1)
        # Reallocate over the freed byte range (first-fit reuses the
        # lowest freed offsets) shifted by a half page.
        fresh = source.allocate(4 << 10)
        assert any(
            fresh.offset <= off < fresh.end or fresh.offset >= off
            for off in old_offsets
        )
        before = cache.snapshot()
        source.read(fresh, 2 << 10, offset=512)
        delta = cache.snapshot() - before
        assert delta.hits == 0
        assert delta.misses > 0
        # A re-read of the same pages now hits — the cache still works,
        # it just never lied about the recycled space.
        before = cache.snapshot()
        source.read(fresh, 2 << 10, offset=512)
        delta = cache.snapshot() - before
        assert delta.misses == 0
        assert delta.hits > 0

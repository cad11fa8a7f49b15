"""Cost-aware routing: structural keys, tie-breaks, failure fallback."""

from dataclasses import dataclass, field

from repro.advisor import DesignRouter


@dataclass
class FakeIndex:
    time_set: frozenset


@dataclass
class FakeWave:
    constituents: list

    def live_constituents(self):
        return self.constituents


@dataclass
class FakeReplica:
    replica_id: int
    wave: FakeWave


@dataclass
class FakeShard:
    replicas: list = field(default_factory=list)


def _replica(replica_id, day_sets):
    wave = FakeWave([FakeIndex(frozenset(days)) for days in day_sets])
    return FakeReplica(replica_id, wave)


class TestCostKey:
    def test_probe_prefers_fewer_overlapping_constituents(self):
        router = DesignRouter()
        fat = _replica(0, [range(1, 7)])           # one 6-day constituent
        thin = _replica(1, [[d] for d in range(1, 7)])  # six 1-day ones
        assert router.cost_key(fat, 1, 6, "probe") < router.cost_key(
            thin, 1, 6, "probe"
        )

    def test_scan_prefers_fewer_total_bytes(self):
        router = DesignRouter()
        # Newest-day scan: the fat layout streams all 6 days, the thin
        # layout streams exactly one.
        fat = _replica(0, [range(1, 7)])
        thin = _replica(1, [[d] for d in range(1, 7)])
        assert router.cost_key(thin, 6, 6, "scan") < router.cost_key(
            fat, 6, 6, "scan"
        )

    def test_non_overlapping_constituents_cost_nothing(self):
        router = DesignRouter()
        replica = _replica(0, [[1, 2], [5, 6]])
        overlapping, overlap_days, _ = router.cost_key(replica, 1, 2, "probe")
        assert (overlapping, overlap_days) == (1, 2)


class TestChoose:
    def test_ties_break_to_lowest_replica_id(self):
        # Identical layouts must reduce to the legacy primary choice —
        # that is the uniform-mode bit-identity guarantee.
        router = DesignRouter()
        shard = FakeShard(
            [_replica(i, [[d] for d in range(1, 5)]) for i in range(3)]
        )
        chosen = router.choose(shard, 1, 4, "probe")
        assert chosen.replica_id == 0

    def test_divergent_twins_split_probe_and_scan_traffic(self):
        router = DesignRouter()
        probe_twin = _replica(0, [range(1, 7)])
        scan_twin = _replica(1, [[d] for d in range(1, 7)])
        shard = FakeShard([probe_twin, scan_twin])
        assert router.choose(shard, 1, 6, "probe") is probe_twin
        assert router.choose(shard, 6, 6, "scan") is scan_twin

    def test_failed_replicas_are_never_chosen(self):
        router = DesignRouter()
        best = _replica(0, [range(1, 7)])
        fallback = _replica(1, [[d] for d in range(1, 7)])
        shard = FakeShard([best, fallback])
        assert router.choose(shard, 1, 6, "probe") is best
        # A retired replica leaves its shard's list, and with it the pool.
        shard.replicas = [fallback]
        assert router.choose(shard, 1, 6, "probe") is fallback

    def test_candidates_restrict_the_pool(self):
        router = DesignRouter()
        a = _replica(0, [range(1, 7)])
        b = _replica(1, [[d] for d in range(1, 7)])
        shard = FakeShard([a, b])
        assert router.choose(shard, 1, 6, "probe", candidates=[b]) is b

    def test_nothing_alive_returns_none(self):
        router = DesignRouter()
        shard = FakeShard([])
        assert router.choose(shard, 1, 1, "probe") is None

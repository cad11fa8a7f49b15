"""Partitioner unit + property tests.

The hypothesis suites pin the two partitioners' contracts: the hash
partitioner keeps shard loads balanced for arbitrary key sets (no shard
ever carries more than a constant factor of the mean), and the range
partitioner's mapping is monotone non-decreasing in the key with split
points landing exactly on shard boundaries.
"""

from decimal import Decimal
from fractions import Fraction
from zlib import crc32

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    SlotHashPartitioner,
    make_partitioner,
    partition_store,
)
from repro.errors import ClusterError
from tests.conftest import make_store


class TestHashPartitioner:
    def test_is_a_partitioner(self):
        assert isinstance(HashPartitioner(4), Partitioner)

    def test_deterministic_and_in_range(self):
        p = HashPartitioner(5)
        for v in ["a", "b", 7, ("x", 1)]:
            s = p.shard_for(v)
            assert 0 <= s < 5
            assert p.shard_for(v) == s

    def test_rejects_zero_shards(self):
        with pytest.raises(ClusterError):
            HashPartitioner(0)

    def test_describe_is_json_friendly(self):
        import json

        assert json.dumps(HashPartitioner(3).describe())

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        k=st.integers(min_value=2, max_value=8),
    )
    def test_balance_bound_over_random_key_sets(self, seed, k):
        # Max shard load stays within 1.5x the mean for a 500-key set —
        # CRC32 spreads arbitrary string keys evenly enough that no
        # shard becomes a hotspot.
        p = HashPartitioner(k)
        n_keys = 500
        loads = [0] * k
        for i in range(n_keys):
            loads[p.shard_for(f"k{seed}:{i}")] += 1
        assert sum(loads) == n_keys
        assert max(loads) <= 1.5 * (n_keys / k)


class TestRangePartitioner:
    def test_split_points_are_boundaries(self):
        p = RangePartitioner([10, 20])
        assert p.n_shards == 3
        assert p.shard_for(9) == 0
        assert p.shard_for(10) == 1
        assert p.shard_for(19) == 1
        assert p.shard_for(20) == 2
        assert p.shard_for(10**9) == 2

    def test_rejects_unordered_or_empty_splits(self):
        with pytest.raises(ClusterError):
            RangePartitioner([])
        with pytest.raises(ClusterError):
            RangePartitioner([3, 3])
        with pytest.raises(ClusterError):
            RangePartitioner([5, 2])
        with pytest.raises(ClusterError):
            RangePartitioner([1, "b"])

    def test_incomparable_value_raises(self):
        p = RangePartitioner(["m"])
        with pytest.raises(ClusterError):
            p.shard_for(object())

    @settings(max_examples=50, deadline=None)
    @given(
        splits=st.lists(
            st.integers(min_value=-(10**6), max_value=10**6),
            min_size=1,
            max_size=7,
            unique=True,
        ),
        values=st.lists(
            st.integers(min_value=-(10**6) - 10, max_value=10**6 + 10),
            min_size=2,
            max_size=50,
        ),
    )
    def test_shard_for_is_monotone_in_the_key(self, splits, values):
        p = RangePartitioner(sorted(splits))
        shards = [p.shard_for(v) for v in sorted(values)]
        assert all(a <= b for a, b in zip(shards, shards[1:]))
        assert all(0 <= s < p.n_shards for s in shards)

    @settings(max_examples=30, deadline=None)
    @given(
        splits=st.lists(
            st.integers(min_value=-100, max_value=100),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    def test_non_monotone_splits_always_rejected(self, splits):
        ordered = sorted(splits)
        shuffled = list(reversed(ordered))
        assert shuffled != ordered
        with pytest.raises(ClusterError):
            RangePartitioner(shuffled)


class TestRangeSplitMerge:
    def test_split_inserts_a_boundary(self):
        p = RangePartitioner([10, 20]).split(1, key=15)
        assert p.n_shards == 4
        assert p.shard_for(14) == 1
        assert p.shard_for(15) == 2
        assert p.shard_for(20) == 3

    def test_split_rejects_key_on_lower_boundary(self):
        # key == lo would leave the left child with an empty range.
        with pytest.raises(ClusterError):
            RangePartitioner([10, 20]).split(1, key=10)

    def test_split_rejects_key_at_or_past_upper_boundary(self):
        with pytest.raises(ClusterError):
            RangePartitioner([10, 20]).split(1, key=20)
        with pytest.raises(ClusterError):
            RangePartitioner([10, 20]).split(1, key=25)

    def test_single_value_integer_range_cannot_split(self):
        # [7, 8) holds exactly one integer: no interior split point.
        p = RangePartitioner([7, 8])
        for key in (7, 8):
            with pytest.raises(ClusterError):
                p.split(1, key=key)

    def test_split_requires_a_key(self):
        with pytest.raises(ClusterError):
            RangePartitioner([10]).split(0)

    def test_split_rejects_bad_shard_id(self):
        with pytest.raises(ClusterError):
            RangePartitioner([10]).split(2, key=20)

    def test_merge_removes_the_boundary(self):
        p = RangePartitioner([10, 20]).merge_with_next(0)
        assert p.n_shards == 2
        assert p.shard_for(5) == 0
        assert p.shard_for(15) == 0
        assert p.shard_for(20) == 1

    def test_merge_below_two_shards_rejected(self):
        p = RangePartitioner([10])
        assert p.n_shards == 2
        with pytest.raises(ClusterError):
            p.merge_with_next(0)

    def test_merge_needs_a_next_neighbour(self):
        with pytest.raises(ClusterError):
            RangePartitioner([10, 20]).merge_with_next(2)

    @settings(max_examples=60, deadline=None)
    @given(
        splits=st.lists(
            st.integers(min_value=-1000, max_value=1000),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        shard_id=st.integers(min_value=0, max_value=6),
        offset=st.integers(min_value=-1500, max_value=1500),
        values=st.lists(
            st.integers(min_value=-1100, max_value=1100),
            min_size=4,
            max_size=40,
        ),
    )
    def test_split_then_inverse_merge_is_identity(
        self, splits, shard_id, offset, values
    ):
        # For any legal split, merging the two children back routes every
        # value exactly as before, and routing stays monotone throughout.
        p = RangePartitioner(sorted(splits))
        shard_id %= p.n_shards
        key = offset
        try:
            split = p.split(shard_id, key=key)
        except ClusterError:
            return  # key outside the shard's open interval: rejected
        assert split.n_shards == p.n_shards + 1
        shards = [split.shard_for(v) for v in sorted(values)]
        assert all(a <= b for a, b in zip(shards, shards[1:]))
        merged = split.merge_with_next(shard_id)
        for v in values:
            assert merged.shard_for(v) == p.shard_for(v)

    @settings(max_examples=60, deadline=None)
    @given(
        splits=st.lists(
            st.integers(min_value=-1000, max_value=1000),
            min_size=2,
            max_size=6,
            unique=True,
        ),
        shard_id=st.integers(min_value=0, max_value=5),
        values=st.lists(
            st.integers(min_value=-1100, max_value=1100),
            min_size=4,
            max_size=40,
        ),
    )
    def test_merge_routes_monotone_and_fuses_neighbours(
        self, splits, shard_id, values
    ):
        p = RangePartitioner(sorted(splits))
        shard_id %= p.n_shards - 1
        merged = p.merge_with_next(shard_id)
        assert merged.n_shards == p.n_shards - 1
        shards = [merged.shard_for(v) for v in sorted(values)]
        assert all(a <= b for a, b in zip(shards, shards[1:]))
        for v in values:
            old = p.shard_for(v)
            want = old if old <= shard_id else old - 1
            assert merged.shard_for(v) == want


class TestSlotHashPartitioner:
    def test_balanced_covers_all_shards(self):
        p = SlotHashPartitioner.balanced(3, n_slots=8)
        assert p.n_shards == 3
        owned = [p.owned_slots(s) for s in range(3)]
        assert sorted(slot for slots in owned for slot in slots) == list(
            range(8)
        )

    def test_split_moves_only_own_slots(self):
        p = SlotHashPartitioner.balanced(3, n_slots=12)
        before = {v: p.shard_for(v) for v in range(500)}
        split = p.split(1)
        assert split.n_shards == 4
        for v, old in before.items():
            new = split.shard_for(v)
            if old == 1:
                assert new in (1, 2)
            elif old > 1:
                assert new == old + 1  # shifted, not rerouted
            else:
                assert new == old

    def test_split_single_slot_shard_rejected(self):
        p = SlotHashPartitioner((0, 1))
        with pytest.raises(ClusterError):
            p.split(0)

    def test_merge_is_split_inverse(self):
        p = SlotHashPartitioner.balanced(4, n_slots=16)
        round_trip = p.split(2).merge_with_next(2)
        for v in range(500):
            assert round_trip.shard_for(v) == p.shard_for(v)

    def test_merge_needs_neighbour(self):
        p = SlotHashPartitioner.balanced(2, n_slots=4)
        with pytest.raises(ClusterError):
            p.merge_with_next(1)

    def test_make_partitioner_kind(self):
        p = make_partitioner("slot-hash", 4)
        assert isinstance(p, SlotHashPartitioner)
        assert p.describe()["kind"] == "slot-hash"


class TestMakePartitioner:
    def test_hash_kind(self):
        assert isinstance(make_partitioner("hash", 4), HashPartitioner)

    def test_range_kind_needs_matching_splits(self):
        p = make_partitioner("range", 3, range_splits=["h", "p"])
        assert isinstance(p, RangePartitioner)
        with pytest.raises(ClusterError):
            make_partitioner("range", 3, range_splits=["h"])
        with pytest.raises(ClusterError):
            make_partitioner("range", 3)

    def test_single_shard_range_needs_no_splits(self):
        assert make_partitioner("range", 1).n_shards == 1

    def test_unknown_kind(self):
        with pytest.raises(ClusterError):
            make_partitioner("modulo", 2)


class TestPartitionStore:
    def test_single_shard_is_identity(self):
        store = make_store(6)
        assert partition_store(store, HashPartitioner(1)) == [store]

    def test_every_shard_sees_every_day(self):
        store = make_store(8)
        shards = partition_store(store, HashPartitioner(3))
        assert len(shards) == 3
        for shard_store in shards:
            assert shard_store.days == store.days

    def test_values_land_on_their_owning_shard_only(self):
        store = make_store(8)
        p = HashPartitioner(3)
        shards = partition_store(store, p)
        for shard_id, shard_store in enumerate(shards):
            for day in shard_store.days:
                for record in shard_store.batch(day).records:
                    assert record.values
                    assert all(
                        p.shard_for(v) == shard_id for v in record.values
                    )

    def test_union_of_shards_covers_every_posting(self):
        store = make_store(8)
        shards = partition_store(store, HashPartitioner(4))
        want = set()
        for day in store.days:
            for record in store.batch(day).records:
                for v in record.values:
                    want.add((record.record_id, day, v))
        got = set()
        for shard_store in shards:
            for day in shard_store.days:
                for record in shard_store.batch(day).records:
                    for v in record.values:
                        got.add((record.record_id, day, v))
        assert got == want


class TestShardsForMany:
    """Batched routing must be element-identical to per-value routing."""

    values = st.lists(
        st.one_of(
            st.text(max_size=8),
            st.integers(min_value=-1000, max_value=1000),
            st.tuples(st.text(max_size=3), st.integers()),
        ),
        max_size=50,
    )

    @settings(max_examples=100, deadline=None)
    @given(values=values, k=st.integers(min_value=1, max_value=6))
    def test_hash_matches_shard_for(self, values, k):
        p = HashPartitioner(k)
        assert p.shards_for_many(values) == [
            p.shard_for(v) for v in values
        ]

    @settings(max_examples=100, deadline=None)
    @given(values=values, k=st.integers(min_value=1, max_value=6))
    def test_slot_hash_matches_shard_for(self, values, k):
        p = SlotHashPartitioner.balanced(k, 16)
        assert p.shards_for_many(values) == [
            p.shard_for(v) for v in values
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=-100, max_value=100), max_size=50
        ),
        splits=st.lists(
            st.integers(min_value=-80, max_value=80),
            min_size=1,
            max_size=5,
            unique=True,
        ).map(sorted),
    )
    def test_range_matches_shard_for(self, values, splits):
        p = RangePartitioner(tuple(splits))
        assert p.shards_for_many(values) == [
            p.shard_for(v) for v in values
        ]

    def test_unhashable_values_fall_back_to_per_value_routing(self):
        # The routing memo keys on the value; unhashable values (lists)
        # must still route rather than raise TypeError.
        p = HashPartitioner(4)
        mixed = ["a", [1, 2], "b", [1, 2], {"k": 1}]
        assert p.shards_for_many(mixed) == [
            p.shard_for(v) for v in mixed
        ]

    def test_memo_survives_repeat_batches(self):
        p = SlotHashPartitioner.balanced(3, 8)
        batch = ["x", "y", "x", "z"]
        first = p.shards_for_many(batch)
        assert p.shards_for_many(batch) == first
        assert p.shards_for_many(list(reversed(batch))) == list(
            reversed(first)
        )

    def test_empty_batch(self):
        assert HashPartitioner(3).shards_for_many([]) == []

    def test_split_partitioner_does_not_inherit_stale_memo(self):
        # split() returns a *new* partitioner; routings cached on the
        # parent must not leak into the child's different topology.
        parent = SlotHashPartitioner.balanced(2, 8)
        keys = [f"k{i}" for i in range(32)]
        parent.shards_for_many(keys)  # warm the parent's memo
        child = parent.split(0)
        assert child.shards_for_many(keys) == [
            child.shard_for(k) for k in keys
        ]


class TestEqualKeysRouteTogether:
    """``1 == 1.0 == True`` is one directory key, so it is one route.

    So are ``0.5 == Fraction(1, 2) == Decimal("0.5")``.  Through
    ``shard_for`` and ``shards_for_many``, in any order, with a fresh or a
    warm memo — the memo used to answer with whichever spelling it had
    seen first while ``shard_for`` hashed ``str(value)``.
    """

    eighths = st.integers(min_value=-160, max_value=160).map(lambda n: Fraction(n, 8))
    reals = st.one_of(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20).map(float),
        st.booleans(),
        st.floats(min_value=-20, max_value=20, allow_nan=False),
        eighths,  # every one of them is a float, a Decimal and a complex too
        eighths.map(float),
        eighths.map(lambda q: Decimal(q.numerator) / Decimal(q.denominator)),
        st.fractions(min_value=-20, max_value=20, max_denominator=10),
        st.decimals(min_value=-20, max_value=20, places=1),
    )
    numbers = st.one_of(reals, eighths.map(complex))  # a range cannot order complex
    mixed = st.lists(st.one_of(numbers, st.text(max_size=3)), max_size=30)

    @staticmethod
    def check(make, values, shuffled):
        route = {}
        for value in values:
            route.setdefault(value, make().shard_for(value))
        for order in (values, shuffled):
            want = [route[value] for value in order]
            assert [make().shard_for(value) for value in order] == want
            assert make().shards_for_many(order) == want
            warm = make()
            warm.shards_for_many(shuffled)
            assert warm.shards_for_many(order) == want

    @pytest.mark.parametrize(
        "a, b",
        [
            (1, 1.0),
            (0, False),
            (2, 2.0),
            (7, 7.0),
            (0.5, Fraction(1, 2)),
            (Decimal("0.5"), 0.5),
            (Fraction(1, 10), Decimal("0.1")),
            (3, Decimal("3.0")),
            (2.5, 2.5 + 0j),
            (float("inf"), Decimal("Infinity")),
            pytest.param(10**400, Decimal("1e400"), id="10**400-Decimal('1e400')"),
        ],
    )
    def test_the_first_spelling_seen_does_not_pick_the_shard(self, a, b):
        for make in (
            lambda: HashPartitioner(4),
            lambda: SlotHashPartitioner.balanced(4, 16),
        ):
            assert make().shards_for_many([a, b]) == make().shards_for_many([b, a])
            assert make().shard_for(a) == make().shard_for(b)
            self.check(make, [a, b], [b, a])

    def test_equal_tuples_route_together(self):
        p = HashPartitioner(11)
        assert p.shard_for((1, ("a", 2.0))) == p.shard_for((True, ("a", 2)))

    @settings(max_examples=100, deadline=None)
    @given(values=mixed, k=st.integers(min_value=1, max_value=6), data=st.data())
    def test_hash(self, values, k, data):
        shuffled = data.draw(st.permutations(values))
        self.check(lambda: HashPartitioner(k), values, shuffled)

    @settings(max_examples=100, deadline=None)
    @given(values=mixed, k=st.integers(min_value=1, max_value=6), data=st.data())
    def test_slot_hash(self, values, k, data):
        shuffled = data.draw(st.permutations(values))
        self.check(lambda: SlotHashPartitioner.balanced(k, 16), values, shuffled)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(reals, max_size=30),
        splits=st.lists(
            st.integers(min_value=-15, max_value=15),
            min_size=1,
            max_size=4,
            unique=True,
        ).map(sorted),
        data=st.data(),
    )
    def test_range(self, values, splits, data):
        shuffled = data.draw(st.permutations(values))
        self.check(lambda: RangePartitioner(splits), values, shuffled)

    @settings(max_examples=100, deadline=None)
    @given(
        value=st.one_of(
            st.text(max_size=8),
            st.integers(),
            st.floats(allow_nan=False).filter(lambda f: not f.is_integer()),
        ),
        k=st.integers(min_value=1, max_value=6),
    )
    def test_str_int_and_float_routes_are_the_crc_of_their_text(self, value, k):
        # The six byte-compared artifacts route words and integer keys.
        want = crc32(str(value).encode("utf-8"))
        assert HashPartitioner(k).shard_for(value) == want % k
        slots = SlotHashPartitioner.balanced(k, 16)
        assert slots.shard_for(value) == slots.slot_to_shard[want % 16]

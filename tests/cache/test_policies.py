"""Tests for the cache replacement policies."""

import random

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.policies import (
    FifoPolicy,
    RandomPolicy,
    derive_set_rng,
    make_policy,
)
from repro.cache.setassoc import SetAssociativeCache


def _one_set_cache(policy, ways):
    """A single-set cache: line ``n`` lives at byte address ``n``."""
    return SetAssociativeCache(
        CacheGeometry(total_lines=ways, ways=ways, line_words=1), policy
    )


def _touch(cache, lines):
    for line in lines:
        cache.access(line)


class TestLru:
    """LRU lives in the cache arrays (the set's dict order), so its
    scenarios run against a one-set cache rather than a policy object."""

    def test_evicts_least_recently_used(self):
        cache = _one_set_cache("lru", 4)
        _touch(cache, (0, 1, 2, 3, 0))  # 1 is now the oldest
        cache.access(4)
        assert cache.resident_lines() == [0, 2, 3, 4]

    def test_reaccess_refreshes(self):
        cache = _one_set_cache("lru", 4)
        _touch(cache, (0, 1, 2, 3, 0, 1))
        cache.access(4)
        assert cache.resident_lines() == [0, 1, 3, 4]

    def test_skips_unoccupied_ways(self):
        cache = _one_set_cache("lru", 4)
        _touch(cache, (0, 1, 2, 3))
        cache.flush_line(0)
        cache.access(4)  # takes the free way: nothing is evicted
        assert cache.stats.evictions == 0
        cache.access(5)  # 1 is the oldest resident line
        assert cache.resident_lines() == [2, 3, 4, 5]

    def test_invalidate_removes_from_order(self):
        cache = _one_set_cache("lru", 4)
        _touch(cache, (0, 1, 2, 3))
        cache.flush_line(0)
        _touch(cache, (0, 4))  # the refilled 0 is the newest line
        assert cache.resident_lines() == [0, 2, 3, 4]

    def test_victim_requires_occupied_ways(self):
        cache = _one_set_cache("lru", 2)
        _touch(cache, (0, 1))
        cache.flush_line(1)
        cache.access(2)
        assert cache.stats.evictions == 0
        assert cache.resident_lines() == [0, 2]


class TestFifo:
    def test_evicts_first_filled_even_after_reuse(self):
        policy = FifoPolicy(3)
        for way in (0, 1, 2):
            policy.on_access(way)
        policy.on_access(0)  # a re-reference must not refresh FIFO order
        assert policy.victim([True] * 3) == 0

    def test_invalidate_removes_from_queue(self):
        policy = FifoPolicy(2)
        policy.on_access(0)
        policy.on_access(1)
        policy.on_invalidate(0)
        assert policy.victim([True, True]) == 1

    def test_victim_leaves_the_queue(self):
        # Regression: the evicted way used to stay at the head of the
        # queue, so its refill (the newest line) was evicted next.
        policy = FifoPolicy(2)
        policy.on_access(0)
        policy.on_access(1)
        assert policy.victim([True, True]) == 0
        policy.on_access(0)  # the refill joins the tail
        assert policy.victim([True, True]) == 1

    def test_cache_evicts_in_fill_order(self):
        cache = _one_set_cache("fifo", 2)
        _touch(cache, (0, 1, 2, 3))
        assert cache.resident_lines() == [2, 3]


class TestRandom:
    def test_deterministic_with_seed(self):
        a = RandomPolicy(8, random.Random(7))
        b = RandomPolicy(8, random.Random(7))
        occupied = [True] * 8
        assert [a.victim(occupied) for _ in range(10)] == \
            [b.victim(occupied) for _ in range(10)]

    def test_only_picks_occupied(self):
        policy = RandomPolicy(4, random.Random(1))
        occupied = [False, True, False, True]
        for _ in range(20):
            assert policy.victim(occupied) in (1, 3)

    def test_raises_on_empty_set(self):
        with pytest.raises(RuntimeError):
            RandomPolicy(2).victim([False, False])


class TestDerivedSetStreams:
    """Regression: random replacement must be per-set state.

    The caches used to hand every set the same
    ``derive_rng("replacement-policy", 0)`` stream, so all sets evicted
    in lockstep — correlated "random" replacement.
    """

    def test_distinct_sets_draw_distinct_sequences(self):
        a = derive_set_rng(0)
        b = derive_set_rng(1)
        assert [a.randrange(1 << 30) for _ in range(8)] != \
            [b.randrange(1 << 30) for _ in range(8)]

    def test_same_set_same_scope_is_deterministic(self):
        a = derive_set_rng(3, "l2")
        b = derive_set_rng(3, "l2")
        assert [a.random() for _ in range(8)] == \
            [b.random() for _ in range(8)]

    def test_scopes_decorrelate_hierarchy_levels(self):
        l1 = derive_set_rng(0, "l1-core0")
        l2 = derive_set_rng(0, "l2")
        assert [l1.random() for _ in range(8)] != \
            [l2.random() for _ in range(8)]

    def test_factory_per_set_policies_pick_different_victims(self):
        occupied = [True] * 8
        streams = [
            [make_policy("random", 8, set_index=i).victim(occupied)
             for _ in range(16)]
            for i in range(4)
        ]
        # At least one pair of sets must disagree somewhere (with
        # 16 draws over 8 ways, identical sequences would be the
        # lockstep bug).
        assert len({tuple(s) for s in streams}) > 1

    def test_explicit_rng_reproduces_shared_stream(self):
        # The pre-fix behaviour is still constructible on demand: an
        # explicit rng object is shared verbatim, so every "set" handed
        # the same generator interleaves draws from one sequence.
        shared = random.Random(42)
        a = make_policy("random", 8, shared, set_index=0)
        b = make_policy("random", 8, shared, set_index=1)
        expected = random.Random(42)
        occupied = [True] * 8
        draws = [a.victim(occupied), b.victim(occupied),
                 a.victim(occupied)]
        assert draws == [expected.choice(range(8)) for _ in range(3)]


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("fifo", FifoPolicy), ("random", RandomPolicy),
    ])
    def test_builds_by_name(self, name, cls):
        assert isinstance(make_policy(name, 4), cls)

    def test_lru_has_no_policy_object(self):
        # The cache arrays keep LRU order themselves.
        assert make_policy("lru", 4) is None

    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("plru", 4)

    def test_rejects_bad_way_count(self):
        with pytest.raises(ValueError):
            FifoPolicy(0)

"""Tests for the set-associative cache simulator."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import SetAssociativeCache

small_geometry = CacheGeometry(total_lines=16, ways=4, line_words=1)


class TestBasicResidency:
    def test_first_access_misses_second_hits(self):
        cache = SetAssociativeCache()
        assert cache.access(0x1000) is False
        assert cache.access(0x1000) is True

    def test_is_resident_does_not_perturb(self):
        cache = SetAssociativeCache()
        assert cache.is_resident(0x1000) is False
        assert cache.stats.accesses == 0
        cache.access(0x1000)
        assert cache.is_resident(0x1000) is True

    def test_same_line_different_offsets_hit(self):
        cache = SetAssociativeCache(CacheGeometry(line_words=8))
        cache.access(0x1000)
        assert cache.access(0x1007) is True
        assert cache.access(0x1008) is False


class TestEviction:
    def test_lru_eviction_within_a_set(self):
        cache = SetAssociativeCache(small_geometry)
        sets = small_geometry.num_sets
        # Fill the 4 ways of set 0 with distinct tags, then overflow.
        addresses = [tag * sets for tag in range(5)]
        for address in addresses[:4]:
            cache.access(address)
        cache.access(addresses[0])  # refresh tag 0 -> tag 1 is LRU
        cache.access(addresses[4])  # evicts tag 1
        assert cache.is_resident(addresses[1]) is False
        assert cache.is_resident(addresses[0]) is True
        assert cache.stats.evictions == 1

    def test_capacity_never_exceeded(self):
        cache = SetAssociativeCache(small_geometry)
        rng = random.Random(3)
        for _ in range(500):
            cache.access(rng.randrange(1 << 16))
        assert cache.resident_count() <= small_geometry.total_lines
        for set_index in range(small_geometry.num_sets):
            assert cache.set_occupancy(set_index) <= small_geometry.ways


class TestFlush:
    def test_flush_line_removes_only_that_line(self):
        cache = SetAssociativeCache()
        cache.access(0x1000)
        cache.access(0x1001)
        assert cache.flush_line(0x1000) is True
        assert cache.is_resident(0x1000) is False
        assert cache.is_resident(0x1001) is True

    def test_flush_missing_line_reports_false(self):
        cache = SetAssociativeCache()
        assert cache.flush_line(0x9999) is False

    def test_flush_all_empties_cache(self):
        cache = SetAssociativeCache()
        for address in range(0, 256, 1):
            cache.access(address)
        cache.flush_all()
        assert cache.resident_count() == 0
        assert cache.access(0) is False

    def test_flushed_way_is_refillable(self):
        cache = SetAssociativeCache(small_geometry)
        cache.access(0)
        cache.flush_line(0)
        assert cache.access(0) is False
        assert cache.access(0) is True


class TestFlushAccounting:
    def test_flush_line_splits_resident_and_absent(self):
        cache = SetAssociativeCache()
        cache.access(0x1000)
        cache.flush_line(0x1000)  # resident
        cache.flush_line(0x1000)  # now absent
        cache.flush_line(0x9999)  # never resident
        assert cache.stats.flushes == 3
        assert cache.stats.flush_hits == 1
        assert cache.stats.flush_misses == 2

    def test_flush_all_counts_every_invalidated_line(self):
        cache = SetAssociativeCache(small_geometry)
        for address in range(7):
            cache.access(address)
        cache.flush_all()
        # One clflush per line: 7 resident lines = 7 flushes, and a
        # flush_all by construction only ever hits.
        assert cache.stats.flushes == 7
        assert cache.stats.flush_hits == 7
        assert cache.stats.flush_misses == 0

    def test_flush_all_of_empty_cache_counts_nothing(self):
        cache = SetAssociativeCache()
        cache.flush_all()
        assert cache.stats.flushes == 0


class TestPerSetRandomStreams:
    def test_sets_do_not_evict_in_lockstep(self):
        # Two sets, identical access patterns: with per-set derived
        # streams their eviction choices must eventually diverge (the
        # pre-fix shared stream made every set's residency identical).
        geometry = CacheGeometry(total_lines=8, ways=4, line_words=1)
        cache = SetAssociativeCache(geometry, policy="random")
        sets = geometry.num_sets
        for tag in range(12):
            cache.access(tag * sets + 0)
            cache.access(tag * sets + 1)
        survivors = [
            frozenset(tag for tag in range(12)
                      if cache.is_resident(tag * sets + set_index))
            for set_index in (0, 1)
        ]
        assert survivors[0] != survivors[1]

    def test_shared_explicit_rng_couples_sets(self):
        # An explicit rng restores the pre-fix semantics: one stream
        # shared by every set, so set 0's evictions consume draws that
        # change set 1's outcome.  With the default per-set streams,
        # set 1 is independent of set 0's traffic.
        geometry = CacheGeometry(total_lines=8, ways=4, line_words=1)
        sets = geometry.num_sets

        def set1_survivors(with_set0_traffic, rng):
            cache = SetAssociativeCache(geometry, policy="random",
                                        rng=rng)
            for tag in range(12):
                if with_set0_traffic:
                    cache.access(tag * sets + 0)
                cache.access(tag * sets + 1)
            return frozenset(
                tag for tag in range(12)
                if cache.is_resident(tag * sets + 1)
            )

        shared = (set1_survivors(True, random.Random(5)),
                  set1_survivors(False, random.Random(5)))
        assert shared[0] != shared[1]
        derived = (set1_survivors(True, None),
                   set1_survivors(False, None))
        assert derived[0] == derived[1]


class TestStats:
    def test_counters(self):
        cache = SetAssociativeCache()
        cache.access(0)
        cache.access(0)
        cache.access(64)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_hit_rate_idle(self):
        assert SetAssociativeCache().stats.hit_rate == 0.0

    def test_replay_counts_hits(self):
        cache = SetAssociativeCache()
        # With 1-byte lines: miss, hit, miss, miss.
        assert cache.replay([0, 0, 1, 64]) == 1


class TestReplayDetail:
    def test_replay_hit_count_exact(self):
        cache = SetAssociativeCache()
        hits = cache.replay([0, 0, 0, 64, 64])
        assert hits == 3


#: Two shapes for the replay equivalence: 4 sets of 4 one-byte ways,
#: and 8 sets of 2 four-byte ways (the shift split at a non-zero
#: offset width).
_REPLAY_GEOMETRIES = {
    "1-byte-lines": small_geometry,
    "4-byte-lines": CacheGeometry(total_lines=16, ways=2, line_words=4),
}


def _array_state(cache):
    """Everything a load can change: counters, each set's resident tags
    in dict order (an LRU set's recency order), and for FIFO and random
    sets the way bookkeeping and the FIFO queues / random streams.  An
    LRU set keeps no way numbers, so its tags are all there is."""
    stats = dataclasses.astuple(cache.stats)
    if cache.policy_name == "lru":
        return stats, [list(ways) for ways in cache._sets]
    policies = []
    for policy in cache._policies:
        state = dict(vars(policy))
        if "_rng" in state:
            state["_rng"] = state["_rng"].getstate()
        policies.append(state)
    return (stats, [list(ways.items()) for ways in cache._sets],
            cache._occupied, cache._way_tags, policies)


class TestReplayEquivalence:
    """``replay`` is the per-access loop in one call, down to the
    counters a raising address leaves behind."""

    @pytest.mark.parametrize("geometry", sorted(_REPLAY_GEOMETRIES))
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @settings(max_examples=40, deadline=None)
    @given(addresses=st.lists(st.integers(0, 255), max_size=120),
           negative_at=st.none() | st.integers(0, 120))
    def test_matches_access_loop(self, geometry, policy, addresses,
                                 negative_at):
        shape = _REPLAY_GEOMETRIES[geometry]
        batched = SetAssociativeCache(shape, policy=policy)
        looped = SetAssociativeCache(shape, policy=policy)
        if negative_at is None:
            assert batched.replay(addresses) == sum(
                looped.access(address) for address in addresses)
        else:
            addresses = (addresses[:negative_at] + [-1]
                         + addresses[negative_at:])
            with pytest.raises(ValueError, match="non-negative"):
                batched.replay(addresses)
            with pytest.raises(ValueError, match="non-negative"):
                for address in addresses:
                    looped.access(address)
        assert _array_state(batched) == _array_state(looped)


class TestInvariantsPropertyBased:
    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=4095), max_size=200))
    def test_resident_iff_hit_on_reaccess(self, addresses):
        cache = SetAssociativeCache(small_geometry)
        for address in addresses:
            cache.access(address)
        for address in addresses[-10:]:
            resident = cache.is_resident(address)
            assert cache.access(address) == resident

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=4095), max_size=200))
    def test_resident_lines_unique_and_bounded(self, addresses):
        cache = SetAssociativeCache(small_geometry)
        for address in addresses:
            cache.access(address)
        lines = cache.resident_lines()
        assert len(lines) == len(set(lines))
        assert len(lines) <= small_geometry.total_lines

    @settings(max_examples=20)
    @given(st.lists(st.integers(min_value=0, max_value=1023), max_size=64))
    def test_distinct_lines_below_capacity_all_fit(self, addresses):
        # The paper-default cache holds 1024 lines; up to 64 distinct
        # small addresses can never evict each other (one tag per set).
        cache = SetAssociativeCache()
        for address in addresses:
            cache.access(address)
        for address in addresses:
            assert cache.is_resident(address)


class TestValidation:
    def test_set_occupancy_bounds(self):
        cache = SetAssociativeCache(small_geometry)
        with pytest.raises(ValueError):
            cache.set_occupancy(small_geometry.num_sets)

    def test_policy_choice(self):
        cache = SetAssociativeCache(small_geometry, policy="fifo")
        assert cache.policy_name == "fifo"
        with pytest.raises(ValueError):
            SetAssociativeCache(small_geometry, policy="bogus")


class TestRunKernels:
    """``access_lines``/``flush_lines`` are the per-line ``access`` /
    ``flush_line`` loops in one call each, down to the counters a
    raising address leaves behind."""

    @pytest.mark.parametrize("geometry", sorted(_REPLAY_GEOMETRIES))
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @settings(max_examples=40, deadline=None)
    @given(runs=st.lists(st.tuples(st.sampled_from(["access", "flush"]),
                                   st.lists(st.integers(0, 255),
                                            max_size=40)),
                         max_size=8),
           negative_at=st.none() | st.integers(0, 40))
    def test_matches_per_line_loop(self, geometry, policy, runs,
                                   negative_at):
        shape = _REPLAY_GEOMETRIES[geometry]
        batched = SetAssociativeCache(shape, policy=policy)
        looped = SetAssociativeCache(shape, policy=policy)
        kernels = {
            "access": (batched.access_lines, looped.access),
            "flush": (batched.flush_lines, looped.flush_line),
        }
        for kind, addresses in runs:
            run, per_line = kernels[kind]
            assert run(addresses) == [per_line(address)
                                      for address in addresses]
            assert _array_state(batched) == _array_state(looped)
        if negative_at is None:
            return
        addresses = [(37 * index) % 256 for index in range(negative_at)]
        addresses += [-1, 0]
        for run, per_line in kernels.values():
            with pytest.raises(ValueError, match="non-negative"):
                run(iter(addresses))
            with pytest.raises(ValueError, match="non-negative"):
                for address in addresses:
                    per_line(address)
            assert _array_state(batched) == _array_state(looped)

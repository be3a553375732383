"""Tests for the two-level (private L1 + shared L2) hierarchy."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.multilevel import (
    InclusionPolicy,
    MemoryLevel,
    TwoLevelHierarchy,
)
from repro.cache.policies import derive_set_rng

from .invariants import inclusion_holds


def _inclusive():
    return TwoLevelHierarchy(inclusion=InclusionPolicy.INCLUSIVE)


def _exclusive():
    return TwoLevelHierarchy(inclusion=InclusionPolicy.EXCLUSIVE)


class TestBasicFlow:
    def test_miss_then_l1_hit(self):
        hierarchy = _inclusive()
        assert hierarchy.access(0, 0x100) is MemoryLevel.MEMORY
        assert hierarchy.access(0, 0x100) is MemoryLevel.L1

    def test_cross_core_sharing_through_l2_inclusive(self):
        hierarchy = _inclusive()
        hierarchy.access(0, 0x100)
        # Other core misses its own L1 but hits the shared L2.
        assert hierarchy.access(1, 0x100) is MemoryLevel.L2

    def test_exclusive_l2_does_not_hold_fresh_fills(self):
        hierarchy = _exclusive()
        hierarchy.access(0, 0x100)
        assert not hierarchy.l2.is_resident(0x100)
        # The other core must go to memory.
        assert hierarchy.access(1, 0x100) is MemoryLevel.MEMORY

    def test_exclusive_l2_receives_l1_victims(self):
        geometry = CacheGeometry(total_lines=4, ways=2)
        hierarchy = TwoLevelHierarchy(
            l1_geometry=geometry,
            l2_geometry=CacheGeometry(total_lines=64, ways=8),
            inclusion=InclusionPolicy.EXCLUSIVE,
        )
        sets = geometry.num_sets
        # Fill set 0's two ways, then overflow it.
        for tag in range(3):
            hierarchy.access(0, tag * sets * geometry.line_bytes)
        # Tag 0 was evicted from L1 and must now live in L2.
        assert hierarchy.l2.is_resident(0)
        assert hierarchy.access(0, 0) is MemoryLevel.L2

    def test_stats_accumulate(self):
        hierarchy = _inclusive()
        hierarchy.access(0, 0)
        hierarchy.access(0, 0)
        hierarchy.access(1, 0)
        assert hierarchy.stats.memory_fetches == 1
        assert hierarchy.stats.l1_hits == 1
        assert hierarchy.stats.l2_hits == 1


class TestFlush:
    def test_clflush_purges_every_level_and_core(self):
        hierarchy = _inclusive()
        hierarchy.access(0, 0x40)
        hierarchy.access(1, 0x40)
        hierarchy.flush_line(0x40)
        assert not hierarchy.l2.is_resident(0x40)
        assert not hierarchy.l1[0].is_resident(0x40)
        assert not hierarchy.l1[1].is_resident(0x40)
        assert hierarchy.access(0, 0x40) is MemoryLevel.MEMORY


class TestCounterAccounting:
    def test_flush_split_resident_vs_absent(self):
        hierarchy = _inclusive()
        hierarchy.access(0, 0x40)
        hierarchy.flush_line(0x40)   # resident somewhere
        hierarchy.flush_line(0x40)   # now gone
        hierarchy.flush_line(0x800)  # never seen
        assert hierarchy.stats.flushes == 3
        assert hierarchy.stats.flush_hits == 1
        assert hierarchy.stats.flush_misses == 2

    def test_evictions_and_back_invalidates_counted(self):
        hierarchy = TwoLevelHierarchy(
            l1_geometry=CacheGeometry(total_lines=64, ways=4),
            l2_geometry=CacheGeometry(total_lines=2, ways=2),
            inclusion=InclusionPolicy.INCLUSIVE,
        )
        hierarchy.access(0, 0)
        hierarchy.access(0, 2)
        assert hierarchy.stats.evictions == 0
        hierarchy.access(0, 4)  # L2 set overflows, line 0 back-invalidated
        assert hierarchy.stats.evictions == 1
        assert hierarchy.stats.back_invalidates == 1

    def test_exclusive_spill_evictions_counted(self):
        geometry = CacheGeometry(total_lines=4, ways=2)
        hierarchy = TwoLevelHierarchy(
            l1_geometry=geometry,
            l2_geometry=CacheGeometry(total_lines=64, ways=8),
            inclusion=InclusionPolicy.EXCLUSIVE,
        )
        sets = geometry.num_sets
        for tag in range(3):
            hierarchy.access(0, tag * sets * geometry.line_bytes)
        # The L1 overflow that spilled tag 0 into L2 is an eviction.
        assert hierarchy.stats.evictions == 1
        assert hierarchy.stats.back_invalidates == 0


def _two_overflows(level):
    """Fill set 0 of one array, re-reference its first line, then
    overflow it twice; return the two evicted lines (tags ``0..ways+1``,
    so the lines are ``tag * num_sets``)."""
    geometry = level.geometry
    ways = geometry.ways
    address = [tag * geometry.num_sets * geometry.line_bytes
               for tag in range(ways + 2)]
    level.access_lines(address[:ways] + [address[0]])
    evicted = []
    for overflow in address[ways:]:
        before = set(level.resident_lines())
        assert not level.access(overflow)
        (line,) = before - set(level.resident_lines())
        evicted.append(line // geometry.num_sets)
    return evicted


def _expected_overflows(policy, ways, scope):
    """The two evicted tags of :func:`_two_overflows` under ``policy``."""
    if policy == "lru":
        return [1, 2]  # tag 0 was re-referenced
    if policy == "fifo":
        return [0, 1]  # fill order, re-reference ignored
    rng = derive_set_rng(0, scope)
    way_tag = list(range(ways))
    evicted = []
    for tag in (ways, ways + 1):
        way = rng.choice(range(ways))
        evicted.append(way_tag[way])
        way_tag[way] = tag
    return evicted


class TestPolicyPlumbing:
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_policy_reaches_both_levels(self, policy):
        hierarchy = TwoLevelHierarchy(policy=policy)
        assert hierarchy.policy_name == policy
        for level, scope in ((hierarchy.l1[0], "l1-core0"),
                             (hierarchy.l2, "l2")):
            assert _two_overflows(level) == \
                _expected_overflows(policy, level.geometry.ways, scope)

    def test_random_levels_draw_uncorrelated_streams(self):
        # Per-core L1s and the shared L2 must not evict in lockstep:
        # each array's sets get scope-derived streams.
        hierarchy = TwoLevelHierarchy(policy="random")
        occupied = [True] * 4
        l1a = [hierarchy.l1[0]._policies[0].victim(occupied)
               for _ in range(12)]
        l1b = [hierarchy.l1[1]._policies[0].victim(occupied)
               for _ in range(12)]
        assert l1a != l1b

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            TwoLevelHierarchy(policy="plru")


class TestInclusionInvariants:
    @settings(max_examples=20)
    @given(st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1023)),
        max_size=300,
    ))
    def test_inclusive_invariant_holds(self, accesses):
        hierarchy = _inclusive()
        for core, address in accesses:
            hierarchy.access(core, address)
        assert inclusion_holds(hierarchy)

    @settings(max_examples=20)
    @given(st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1023)),
        max_size=300,
    ))
    def test_exclusive_invariant_holds(self, accesses):
        hierarchy = _exclusive()
        for core, address in accesses:
            hierarchy.access(core, address)
        assert inclusion_holds(hierarchy)

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @pytest.mark.parametrize("inclusion", list(InclusionPolicy))
    @settings(max_examples=15, deadline=None)
    @given(ops=st.lists(
        st.one_of(
            st.tuples(st.just("access"), st.integers(0, 1),
                      st.integers(0, 255)),
            st.tuples(st.just("flush"), st.just(0), st.integers(0, 255)),
        ),
        max_size=200,
    ))
    def test_invariant_survives_mixed_streams(self, inclusion, policy,
                                              ops):
        # Tiny arrays so the stream forces L1 overflows (exclusive
        # spills), L2 evictions (inclusive back-invalidates), and
        # flush-under-pressure — for every replacement policy.
        hierarchy = TwoLevelHierarchy(
            l1_geometry=CacheGeometry(total_lines=4, ways=2,
                                      line_words=1),
            l2_geometry=CacheGeometry(total_lines=16, ways=4,
                                      line_words=1),
            inclusion=inclusion,
            policy=policy,
        )
        for kind, core, address in ops:
            if kind == "access":
                hierarchy.access(core, address)
            else:
                hierarchy.flush_line(address)
            assert inclusion_holds(hierarchy)
        flush_events = sum(1 for kind, _, _ in ops if kind == "flush")
        assert hierarchy.stats.flushes == flush_events
        assert hierarchy.stats.flush_hits + \
            hierarchy.stats.flush_misses == flush_events

    def test_back_invalidation_on_l2_eviction(self):
        # Tiny L2 so evictions are easy to force.
        hierarchy = TwoLevelHierarchy(
            l1_geometry=CacheGeometry(total_lines=64, ways=4),
            l2_geometry=CacheGeometry(total_lines=2, ways=2),
            inclusion=InclusionPolicy.INCLUSIVE,
        )
        hierarchy.access(0, 0)
        hierarchy.access(0, 2)
        hierarchy.access(0, 4)  # evicts line 0 from L2
        assert not hierarchy.l2.is_resident(0)
        assert not hierarchy.l1[0].is_resident(0)  # back-invalidated


class TestReplay:
    """``replay`` is ``access`` in a loop, with the core checked once."""

    @pytest.mark.parametrize("policy", ["lru", "random"])
    @pytest.mark.parametrize("inclusion", list(InclusionPolicy))
    @settings(max_examples=15, deadline=None)
    @given(runs=st.lists(
        st.tuples(st.integers(0, 1),
                  st.lists(st.integers(0, 255), max_size=40)),
        max_size=8,
    ))
    def test_replay_equals_access_loop(self, inclusion, policy, runs):
        def hierarchy():
            return TwoLevelHierarchy(
                l1_geometry=CacheGeometry(total_lines=4, ways=2,
                                          line_words=1),
                l2_geometry=CacheGeometry(total_lines=16, ways=4,
                                          line_words=1),
                inclusion=inclusion,
                policy=policy,
            )

        replayed, looped = hierarchy(), hierarchy()
        for core, addresses in runs:
            hits = replayed.replay(core, iter(addresses))
            assert hits == sum(
                looped.access(core, address) is not MemoryLevel.MEMORY
                for address in addresses
            )
        assert replayed.stats == looped.stats
        for ours, theirs in zip(replayed.l1 + [replayed.l2],
                                looped.l1 + [looped.l2]):
            assert ours.resident_lines() == theirs.resident_lines()

    def test_rejects_bad_core_before_any_load(self):
        hierarchy = _inclusive()
        with pytest.raises(ValueError):
            hierarchy.replay(5, [0])
        with pytest.raises(ValueError):
            hierarchy.replay(-1, [])
        assert hierarchy.stats == TwoLevelHierarchy().stats


class TestValidation:
    def test_rejects_mismatched_line_sizes(self):
        with pytest.raises(ValueError):
            TwoLevelHierarchy(
                l1_geometry=CacheGeometry(line_words=1),
                l2_geometry=CacheGeometry(line_words=8),
            )

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            TwoLevelHierarchy(cores=0)

    def test_rejects_bad_core_index(self):
        with pytest.raises(ValueError):
            _inclusive().access(5, 0)

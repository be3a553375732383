"""The cache array against a brute-force reference model.

:class:`SetAssociativeCache` is the one array: the single-level cache
and every L1 and the L2 of :class:`TwoLevelHierarchy`.  It splits each
address into ``(set, tag)`` once.  An LRU set is a dict of its
resident tags in recency order, with no way numbers; FIFO and random
sets keep a ``way -> tag`` index, so an eviction never scans its set.
The reference below is the straightforward algorithm:
``set_of``/``tag_of`` per call, victim tag found by scanning the set,
fullness by ``all(occupied)``, and its own list-based LRU and FIFO.
Random operation sequences, driven through the single-level cache and
through the hierarchy, must give the same return values, residency,
LRU recency order, FIFO and random way assignments, counters and
replacement-policy RNG draws.
"""

from dataclasses import asdict
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry, geometry_preset
from repro.cache.multilevel import (
    HierarchyStats,
    InclusionPolicy,
    MemoryLevel,
    TwoLevelHierarchy,
)
from repro.cache.policies import derive_set_rng
from repro.cache.setassoc import CacheStats, SetAssociativeCache

from .invariants import inclusion_holds

POLICIES = ("lru", "fifo", "random")
GEOMETRIES = ("paper", "paper-4word")


class ReferenceArray:
    """One residency-only cache array, the unindexed way.

    Replacement is brute force and shares no code with the arrays:
    LRU and FIFO keep each set's ways in a list, oldest first (an LRU
    hit moves its way to the end, a FIFO hit does not), and the victim
    is the list's head.  Random draws over the occupied ways from the
    set's own :func:`derive_set_rng` stream, because its draws must
    match the real array's.
    """

    def __init__(self, geometry: CacheGeometry, policy: str,
                 rng_scope) -> None:
        self.geometry = geometry
        self.policy = policy
        self.sets: List[Dict[int, int]] = [
            {} for _ in range(geometry.num_sets)
        ]
        self.occupied = [[False] * geometry.ways
                         for _ in range(geometry.num_sets)]
        self.order: List[List[int]] = [[] for _ in
                                       range(geometry.num_sets)]
        self.rngs = [derive_set_rng(set_index, rng_scope)
                     for set_index in range(geometry.num_sets)]

    def _hit(self, set_index: int, way: int) -> None:
        if self.policy == "lru":
            self.order[set_index].remove(way)
            self.order[set_index].append(way)

    def _victim(self, set_index: int) -> int:
        if self.policy == "random":
            occupied = self.occupied[set_index]
            return self.rngs[set_index].choice(
                [way for way in range(self.geometry.ways) if occupied[way]]
            )
        return self.order[set_index][0]

    def lookup(self, address: int) -> bool:
        set_index = self.geometry.set_of(address)
        tag = self.geometry.tag_of(address)
        if tag in self.sets[set_index]:
            self._hit(set_index, self.sets[set_index][tag])
            return True
        return False

    def is_resident(self, address: int) -> bool:
        set_index = self.geometry.set_of(address)
        return self.geometry.tag_of(address) in self.sets[set_index]

    def fill(self, address: int) -> Optional[int]:
        set_index = self.geometry.set_of(address)
        tag = self.geometry.tag_of(address)
        ways = self.sets[set_index]
        if tag in ways:
            self._hit(set_index, ways[tag])
            return None
        occupied = self.occupied[set_index]
        order = self.order[set_index]
        evicted_line = None
        if all(occupied):
            victim_way = self._victim(set_index)
            victim_tag = next(t for t, w in ways.items() if w == victim_way)
            del ways[victim_tag]
            order.remove(victim_way)
            evicted_line = victim_tag * self.geometry.num_sets + set_index
        else:
            victim_way = occupied.index(False)
        ways[tag] = victim_way
        occupied[victim_way] = True
        order.append(victim_way)
        return evicted_line

    def flush_line(self, address: int) -> bool:
        set_index = self.geometry.set_of(address)
        tag = self.geometry.tag_of(address)
        ways = self.sets[set_index]
        if tag not in ways:
            return False
        way = ways.pop(tag)
        self.occupied[set_index][way] = False
        self.order[set_index].remove(way)
        return True

    def resident_lines(self) -> List[int]:
        return sorted(
            tag * self.geometry.num_sets + set_index
            for set_index, ways in enumerate(self.sets)
            for tag in ways
        )


class ReferenceCache:
    """:class:`SetAssociativeCache` semantics over one reference array,
    with the counters a single-level cache keeps (the arrays of a
    hierarchy count nothing)."""

    def __init__(self, geometry: CacheGeometry, policy: str) -> None:
        # The single-level cache derives its per-set streams at scope 0.
        self.array = ReferenceArray(geometry, policy, rng_scope=0)
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        self.stats.accesses += 1
        if self.array.lookup(address):
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if self.array.fill(address) is not None:
            self.stats.evictions += 1
        return False

    def flush_line(self, address: int) -> bool:
        present = self.array.flush_line(address)
        self.stats.flushes += 1
        if present:
            self.stats.flush_hits += 1
        else:
            self.stats.flush_misses += 1
        return present

    def flush_all(self) -> None:
        array = self.array
        for set_index, ways in enumerate(array.sets):
            self.stats.flushes += len(ways)
            self.stats.flush_hits += len(ways)
            ways.clear()
            array.occupied[set_index] = [False] * array.geometry.ways
            array.order[set_index].clear()

    def resident_lines(self) -> List[int]:
        return self.array.resident_lines()


class ReferenceHierarchy:
    """The two-level rules one load at a time, over reference arrays.

    Shares no code with :meth:`TwoLevelHierarchy.replay`, the real
    hierarchy's one loop over loads.  A load that misses its own L1
    looks in L2, then fills the L1; an inclusive L2 also takes every
    memory fill and back-invalidates the L1 copies of what it evicts,
    while an exclusive L2 hands a hit line up to the L1 and takes L1
    victims that no L1 still holds.  Every eviction counts.
    """

    def __init__(self, l1_geometry, l2_geometry, inclusion, policy):
        self.inclusive = inclusion is InclusionPolicy.INCLUSIVE
        self.line_bytes = l1_geometry.line_bytes
        self.stats = HierarchyStats()
        self.l1 = [ReferenceArray(l1_geometry, policy, f"l1-core{core}")
                   for core in range(2)]
        self.l2 = ReferenceArray(l2_geometry, policy, "l2")

    def access(self, core: int, address: int) -> MemoryLevel:
        stats = self.stats
        if self.l1[core].lookup(address):
            stats.l1_hits += 1
            return MemoryLevel.L1
        in_l2 = self.l2.lookup(address)
        evicted = self.l1[core].fill(address)
        if evicted is not None:
            stats.evictions += 1
            victim = evicted * self.line_bytes
            if (not self.inclusive
                    and not any(l1.is_resident(victim) for l1 in self.l1)
                    and self.l2.fill(victim) is not None):
                stats.evictions += 1
        if in_l2:
            stats.l2_hits += 1
            if not self.inclusive:
                self.l2.flush_line(address)
            return MemoryLevel.L2
        stats.memory_fetches += 1
        if self.inclusive:
            evicted = self.l2.fill(address)
            if evicted is not None:
                stats.evictions += 1
                for l1 in self.l1:
                    if l1.flush_line(evicted * self.line_bytes):
                        stats.back_invalidates += 1
        return MemoryLevel.MEMORY

    def flush_line(self, address: int) -> None:
        present = [array.flush_line(address)
                   for array in [self.l2] + self.l1]
        self.stats.flushes += 1
        if any(present):
            self.stats.flush_hits += 1
        else:
            self.stats.flush_misses += 1

    def is_resident_l2(self, address: int) -> bool:
        return self.l2.is_resident(address)


def _assert_same_array(real: SetAssociativeCache,
                       model: ReferenceArray) -> None:
    """Same resident tags in every set.  An LRU set keeps no way
    numbers: its dict holds the resident tags in recency order, which
    must be the reference's way order read as tags.  FIFO and random
    sets must also agree on way numbers and the ``way -> tag`` index."""
    if model.policy == "lru":
        assert [list(ways) for ways in real._sets] == [
            [{way: tag for tag, way in ways.items()}[way] for way in order]
            for ways, order in zip(model.sets, model.order)
        ]
        return
    assert real._sets == model.sets
    assert real._occupied == model.occupied
    assert [
        {way: tags[way] for way, taken in enumerate(occupied) if taken}
        for tags, occupied in zip(real._way_tags, real._occupied)
    ] == [{way: tag for tag, way in ways.items()} for ways in model.sets]


def _address(geometry: CacheGeometry, set_index: int, tag: int,
             offset: int) -> int:
    line = tag * geometry.num_sets + set_index
    return line * geometry.line_bytes + offset % geometry.line_bytes


#: ``(kind, core, set, tag, byte offset)``: two hot sets, 41 tags
#: against at most 16 ways, and long sequences, so most examples fill
#: their sets and evict many times between whole-cache flushes.
operations = st.lists(
    st.tuples(
        st.sampled_from(["access"] * 12 + ["flush_line"] * 3
                        + ["flush_all"]),
        st.integers(0, 1),
        st.integers(0, 1),
        st.integers(0, 40),
        st.integers(0, 7),
    ),
    min_size=80,
    max_size=250,
)


@pytest.mark.parametrize("preset", GEOMETRIES)
@pytest.mark.parametrize("policy", POLICIES)
class TestAgainstReference:
    @settings(max_examples=10, deadline=None)
    @given(ops=operations)
    def test_set_associative_cache(self, preset, policy, ops):
        geometry = geometry_preset(preset)
        cache = SetAssociativeCache(geometry, policy)
        reference = ReferenceCache(geometry, policy)
        for kind, _, set_index, tag, offset in ops:
            if kind == "flush_all":
                assert cache.flush_all() is reference.flush_all()
                continue
            address = _address(geometry, set_index, tag, offset)
            assert (getattr(cache, kind)(address)
                    == getattr(reference, kind)(address))
            assert cache.is_resident(address) == \
                reference.array.is_resident(address)
        assert cache.resident_lines() == reference.resident_lines()
        _assert_same_array(cache, reference.array)
        assert asdict(cache.stats) == asdict(reference.stats)

    @settings(max_examples=10, deadline=None)
    @given(ops=operations,
           inclusion=st.sampled_from(list(InclusionPolicy)))
    def test_two_level_hierarchy(self, preset, policy, ops, inclusion):
        l2_geometry = geometry_preset(preset)
        l1_geometry = CacheGeometry(total_lines=64, ways=4,
                                    line_words=l2_geometry.line_words)
        hierarchy = TwoLevelHierarchy(
            cores=2, l1_geometry=l1_geometry, l2_geometry=l2_geometry,
            inclusion=inclusion, policy=policy,
        )
        reference = ReferenceHierarchy(l1_geometry, l2_geometry,
                                       inclusion, policy)
        for kind, core, set_index, tag, offset in ops:
            address = _address(l2_geometry, set_index, tag, offset)
            if kind == "access":
                assert (hierarchy.access(core, address)
                        is reference.access(core, address))
            else:
                hierarchy.flush_line(address)
                reference.flush_line(address)
            assert (hierarchy.l2.is_resident(address)
                    == reference.is_resident_l2(address))
        _assert_same_hierarchy(hierarchy, reference)


def _assert_same_hierarchy(hierarchy: TwoLevelHierarchy,
                           reference: ReferenceHierarchy) -> None:
    """Same counters and contents; the hierarchy's arrays count nothing
    (:class:`HierarchyStats` is its one counter set)."""
    assert asdict(hierarchy.stats) == asdict(reference.stats)
    for real, model in zip(hierarchy.l1 + [hierarchy.l2],
                           reference.l1 + [reference.l2]):
        _assert_same_array(real, model)
        assert real.stats == CacheStats()
    assert inclusion_holds(hierarchy)


#: A hierarchy small enough that short runs overflow everything: L1s
#: of 2 sets x 2 ways under an L2 of 4 sets x 2 ways, so inclusive L2
#: evictions back-invalidate and exclusive L1 victims spill.
_TINY_L1 = CacheGeometry(total_lines=4, ways=2)
_TINY_L2 = CacheGeometry(total_lines=8, ways=2)

#: ``(kind, core, line numbers)``: runs of loads by one core (counted,
#: or sensed at the shared level) and runs of clflushes, over 24 lines
#: (three times the L2).
runs = st.lists(
    st.tuples(st.sampled_from(["replay"] * 3 + ["access_lines",
                                                "flush_lines"]),
              st.integers(0, 1),
              st.lists(st.integers(0, 23), max_size=12)),
    min_size=4, max_size=30,
)


@pytest.mark.parametrize("policy", ["lru", "random"])
@pytest.mark.parametrize("inclusion", list(InclusionPolicy))
class TestHierarchyRunsAgainstReference:
    """The fused :meth:`TwoLevelHierarchy.replay` loop, the attacker's
    ``access_lines`` and the run flush, against the reference's one
    load or flush at a time."""

    @settings(max_examples=40, deadline=None)
    @given(ops=runs, negative_at=st.none() | st.integers(0, 12))
    def test_runs_match_one_at_a_time(self, inclusion, policy, ops,
                                      negative_at):
        hierarchy = TwoLevelHierarchy(
            cores=2, l1_geometry=_TINY_L1, l2_geometry=_TINY_L2,
            inclusion=inclusion, policy=policy,
        )
        reference = ReferenceHierarchy(_TINY_L1, _TINY_L2, inclusion,
                                       policy)
        line_bytes = _TINY_L1.line_bytes
        for kind, core, lines in ops:
            addresses = [line * line_bytes for line in lines]
            if kind == "flush_lines":
                before = []
                for address in addresses:
                    before.append(reference.is_resident_l2(address))
                    reference.flush_line(address)
                assert hierarchy.flush_lines(addresses) == before
                continue
            if kind == "access_lines":
                before = []
                for address in addresses:
                    before.append(reference.is_resident_l2(address))
                    reference.access(core, address)
                assert hierarchy.access_lines(core, addresses) == before
                continue
            levels = []
            hits = hierarchy.replay(core, addresses, levels)
            expected = [reference.access(core, address)
                        for address in addresses]
            assert levels == expected
            assert hits == sum(level is not MemoryLevel.MEMORY
                               for level in expected)
        _assert_same_hierarchy(hierarchy, reference)
        if negative_at is not None:
            # A bad address mid-run raises: a load run leaves the state
            # its predecessors made, a flush run flushes nothing.
            addresses = [line * line_bytes for line in range(negative_at)]
            for address in addresses:
                reference.access(0, address)
            with pytest.raises(ValueError, match="non-negative"):
                hierarchy.replay(0, addresses + [-1, 0])
            with pytest.raises(ValueError, match="non-negative"):
                hierarchy.flush_lines(addresses + [-1, 0])
            _assert_same_hierarchy(hierarchy, reference)


class TestNegativeAddresses:
    def test_set_associative_cache_rejects(self):
        cache = SetAssociativeCache()
        for operation in (cache.access, cache.is_resident,
                          cache.flush_line):
            with pytest.raises(ValueError, match="non-negative"):
                operation(-1)
        assert asdict(cache.stats) == asdict(CacheStats())

    def test_hierarchy_rejects(self):
        hierarchy = TwoLevelHierarchy()
        with pytest.raises(ValueError, match="non-negative"):
            hierarchy.access(0, -1)
        with pytest.raises(ValueError, match="non-negative"):
            hierarchy.flush_line(-1)
        with pytest.raises(ValueError, match="non-negative"):
            hierarchy.l2.is_resident(-1)
        # Rejected before any counter moves, at every level.
        assert asdict(hierarchy.stats) == asdict(HierarchyStats())
        for array in hierarchy.l1 + [hierarchy.l2]:
            assert asdict(array.stats) == asdict(CacheStats())

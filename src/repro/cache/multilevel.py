"""Two-level cache hierarchy: private L1 per core + shared L2.

The paper's threat model notes that "SoCs may include memory
hierarchies comprising several levels of cache (e.g., L1 to L3)"
(Section III-B) and its conclusion names exploring "the effect of the
memory hierarchy on the effectiveness of the attack" as future work.
This module provides that substrate: per-core private L1s in front of
one shared L2, with either **inclusive** or **exclusive** content
policy — the two designs that behave oppositely under a cross-core
Flush+Reload:

* *inclusive*: every L1 fill also fills L2 (and an L2 eviction
  back-invalidates the L1 copies), so the victim's footprint is visible
  in the shared level even when its later accesses hit privately;
* *exclusive*: memory fills go to the requesting L1 only, and lines
  reach L2 only as L1 *victims* — a working set small enough to live in
  L1 (like GIFT's 16-byte S-box) may never appear in the shared level
  at all.

Every level is a :class:`~repro.cache.setassoc.SetAssociativeCache`,
and the hierarchy owns every change to their contents and every count
of them: :class:`HierarchyStats` is the one counter set, and the
arrays' own :class:`~repro.cache.setassoc.CacheStats` stay at zero.
:meth:`TwoLevelHierarchy.replay` is the one loop over a run of loads,
and so the one place the fill, back-invalidation and spill rules of
both inclusion modes live; :meth:`~TwoLevelHierarchy.flush_lines` is
the one loop over a run of ``clflush``es.  LRU fills and removals are
written inline in both; FIFO and random ones go through the array's
uncounted ``_insert`` and ``_release``.
:meth:`~TwoLevelHierarchy.access` is a one-load run, and
``access_lines`` maps a run's levels to what the shared level held, as
``flush_lines`` does for flushes.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional

from .geometry import CacheGeometry
from .setassoc import SetAssociativeCache, _negative


class MemoryLevel(enum.Enum):
    """Where an access was satisfied."""

    L1 = "l1"
    L2 = "l2"
    MEMORY = "memory"


class InclusionPolicy(enum.Enum):
    """Content relationship between L1 and L2."""

    INCLUSIVE = "inclusive"
    EXCLUSIVE = "exclusive"


@dataclass
class HierarchyStats:
    """Access counters per satisfaction level.

    Besides the where-was-it-satisfied split, the hierarchy tracks the
    events a performance-counter-style defender can read: capacity
    ``evictions`` (any level, counted from each fill's victim),
    ``back_invalidates`` (L1 copies killed by an inclusive L2
    eviction), and the per-line flush split (``flush_hits`` = the
    flushed line was resident somewhere, ``flush_misses`` = it was
    not — the residency signal Flush+Flush itself reads).
    """

    l1_hits: int = 0
    l2_hits: int = 0
    memory_fetches: int = 0
    flushes: int = 0
    flush_hits: int = 0
    flush_misses: int = 0
    evictions: int = 0
    back_invalidates: int = 0


class TwoLevelHierarchy:
    """Private per-core L1s + one shared L2.

    ``flush_line`` models a ``clflush``-style instruction: the line is
    invalidated at *every* level and core, which is what gives a
    cross-core attacker its reset primitive.
    """

    def __init__(self, cores: int = 2,
                 l1_geometry: CacheGeometry = CacheGeometry(
                     total_lines=64, ways=4),
                 l2_geometry: CacheGeometry = CacheGeometry(
                     total_lines=1024, ways=16),
                 inclusion: InclusionPolicy = InclusionPolicy.INCLUSIVE,
                 policy: str = "lru",
                 rng: Optional[random.Random] = None) -> None:
        if cores < 1:
            raise ValueError(f"need at least one core, got {cores}")
        if l1_geometry.line_bytes != l2_geometry.line_bytes:
            raise ValueError("L1 and L2 must share one line size")
        self.cores = cores
        # Coerce so "inclusive" works and an unknown mode raises instead
        # of silently matching neither identity check below.
        self.inclusion = InclusionPolicy(inclusion)
        self.policy_name = policy
        self.rng = rng
        self.stats = HierarchyStats()
        # Scope labels keep each array's derived random-replacement
        # streams independent (ARM-style hierarchies are the use case:
        # correlated per-set streams understate random replacement).
        self.l1 = [
            SetAssociativeCache(l1_geometry, policy, rng,
                                rng_scope=f"l1-core{core}")
            for core in range(cores)
        ]
        self.l2 = SetAssociativeCache(l2_geometry, policy, rng,
                                      rng_scope="l2")
        self.line_bytes = l1_geometry.line_bytes

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.cores:
            raise ValueError(f"core must be in [0, {self.cores}), got {core}")

    def access(self, core: int, address: int) -> MemoryLevel:
        """One load by ``core``; returns the level that satisfied it."""
        levels: List[MemoryLevel] = []
        self.replay(core, (address,), levels)
        return levels[0]

    def replay(self, core: int, addresses: Iterable[int],
               levels: Optional[List[MemoryLevel]] = None) -> int:
        """Loads by ``core``, in order; returns how many hit in L1 or L2.

        This is the hierarchy's one loop over loads, and so the one
        place its fill and eviction rules live.  When ``levels`` is
        given, the level that satisfied each load is appended to it.
        The core is checked once; the counters are kept in locals and
        written back even when an address raises, so ``stats`` then
        reads as it would after the loads before it.
        """
        self._check_core(core)
        l1, l2 = self.l1[core], self.l2
        inclusive = self.inclusion is InclusionPolicy.INCLUSIVE
        # One line size, so one shift; each array has its own set split.
        offset_bits = l1._offset_bits
        l1_mask, l1_bits = l1._set_mask, l1._set_bits
        l2_mask, l2_bits = l2._set_mask, l2._set_bits
        l1_sets, l2_sets = l1._sets, l2._sets
        # Every array shares one policy.  LRU misses and removals are
        # written inline (the victim is the set's first tag, a removal
        # is a dict pop); FIFO and random ones also update the arrays'
        # way maps, uncounted.
        lru = l2._lru
        l1_assoc, l2_assoc = l1._ways, l2._ways
        l1_insert, l2_insert = l1._insert, l2._insert
        l2_release = l2._release
        # Every L1 shares one geometry, so one split serves them all.
        every_l1 = [(other._sets, other._release) for other in self.l1]
        l1_level, l2_level, memory = (MemoryLevel.L1, MemoryLevel.L2,
                                      MemoryLevel.MEMORY)
        l1_hits = l2_hits = fetches = evictions = back_invalidates = 0
        try:
            for address in addresses:
                if address < 0:
                    raise _negative(address)
                line = address >> offset_bits
                set_index = line & l1_mask
                tag = line >> l1_bits
                ways = l1_sets[set_index]
                way = ways.pop(tag, None)
                if way is not None:
                    ways[tag] = way
                    l1_hits += 1
                    if levels is not None:
                        levels.append(l1_level)
                    continue

                l2_set = line & l2_mask
                l2_tag = line >> l2_bits
                l2_ways = l2_sets[l2_set]
                way = l2_ways.pop(l2_tag, None)
                if way is not None:
                    l2_ways[l2_tag] = way
                    l2_hits += 1
                else:
                    fetches += 1

                # Fill the requesting L1.
                if lru:
                    evicted = None
                    if len(ways) == l1_assoc:
                        evicted_tag = next(iter(ways))
                        del ways[evicted_tag]
                        evicted = evicted_tag << l1_bits | set_index
                    ways[tag] = True
                else:
                    evicted = l1_insert(set_index, tag, ways)
                if evicted is not None:
                    evictions += 1
                    # Exclusive hierarchies receive L1 victims (never in
                    # L2 already) into L2 — but only if no *other* core
                    # still caches the line privately: spilling a line
                    # another L1 holds would put it in an L1 and the L2
                    # at once, breaking exclusivity (a real design drops
                    # the clean victim; the sharer keeps serving it).
                    if not inclusive and not any(
                            evicted >> l1_bits in sets[evicted & l1_mask]
                            for sets, _ in every_l1):
                        spill_set = evicted & l2_mask
                        spill_ways = l2_sets[spill_set]
                        if lru:
                            if len(spill_ways) == l2_assoc:
                                del spill_ways[next(iter(spill_ways))]
                                evictions += 1
                            spill_ways[evicted >> l2_bits] = True
                        elif l2_insert(spill_set, evicted >> l2_bits,
                                       spill_ways) is not None:
                            evictions += 1

                if way is not None:
                    if not inclusive:
                        # The line moves up; exclusive L2 gives it away
                        # (unless the spill above just evicted it).
                        way = l2_ways.pop(l2_tag, None)
                        if way is not None and not lru:
                            l2_release(l2_set, way)
                    if levels is not None:
                        levels.append(l2_level)
                    continue

                if inclusive:
                    if lru:
                        evicted = None
                        if len(l2_ways) == l2_assoc:
                            evicted_tag = next(iter(l2_ways))
                            del l2_ways[evicted_tag]
                            evicted = evicted_tag << l2_bits | l2_set
                        l2_ways[l2_tag] = True
                    else:
                        evicted = l2_insert(l2_set, l2_tag, l2_ways)
                    if evicted is not None:
                        # An L2 eviction back-invalidates every L1 copy.
                        evictions += 1
                        evicted_set = evicted & l1_mask
                        evicted_tag = evicted >> l1_bits
                        for sets, release in every_l1:
                            way = sets[evicted_set].pop(evicted_tag, None)
                            if way is not None:
                                back_invalidates += 1
                                if not lru:
                                    release(evicted_set, way)
                if levels is not None:
                    levels.append(memory)
        finally:
            stats = self.stats
            stats.l1_hits += l1_hits
            stats.l2_hits += l2_hits
            stats.memory_fetches += fetches
            stats.evictions += evictions
            stats.back_invalidates += back_invalidates
        return l1_hits + l2_hits

    def flush_line(self, address: int) -> None:
        """clflush: remove the line from every level and core."""
        self.flush_lines((address,))

    def access_lines(self, core: int,
                     addresses: Iterable[int]) -> List[bool]:
        """Loads by ``core``, in order; return whether the L2 held each
        line before its load (what a cross-core reload senses).

        The L2 held the line iff the load hit there, or hit in the
        core's L1 of an inclusive hierarchy (an exclusive one keeps L1
        lines out of the L2).
        """
        levels: List[MemoryLevel] = []
        self.replay(core, addresses, levels)
        if self.inclusion is InclusionPolicy.INCLUSIVE:
            memory = MemoryLevel.MEMORY
            return [level is not memory for level in levels]
        shared = MemoryLevel.L2
        return [level is shared for level in levels]

    def flush_lines(self, addresses: Iterable[int]) -> List[bool]:
        """clflush each address's line from every level and core, in
        order; return whether the L2 held each one.

        The hierarchy's one loop over flushes: each line leaves the L2
        set and every L1 set in one pass.  One instruction flushes one
        line, so ``flushes`` advances by one per address, and it is a
        ``flush_hit`` when any level held the line (the timing signal
        Flush+Flush reads) and a ``flush_miss`` otherwise.  A run
        holding a negative address raises before anything is flushed.
        """
        addresses = tuple(addresses)
        if addresses and min(addresses) < 0:
            raise _negative(next(a for a in addresses if a < 0))
        l1, l2 = self.l1[0], self.l2
        offset_bits = l2._offset_bits
        l1_mask, l1_bits = l1._set_mask, l1._set_bits
        l2_mask, l2_bits = l2._set_mask, l2._set_bits
        l2_sets, l2_release = l2._sets, l2._release
        every_l1 = [(other._sets, other._release) for other in self.l1]
        lru = l2._lru
        shared: List[bool] = []
        append = shared.append
        resident = 0
        for address in addresses:
            line = address >> offset_bits
            set_index = line & l2_mask
            way = l2_sets[set_index].pop(line >> l2_bits, None)
            held = way is not None
            append(held)
            if held and not lru:
                l2_release(set_index, way)
            set_index = line & l1_mask
            tag = line >> l1_bits
            for sets, release in every_l1:
                way = sets[set_index].pop(tag, None)
                if way is not None:
                    held = True
                    if not lru:
                        release(set_index, way)
            resident += held
        stats = self.stats
        stats.flushes += len(addresses)
        stats.flush_hits += resident
        stats.flush_misses += len(addresses) - resident
        return shared

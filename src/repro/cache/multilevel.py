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

Every level is a :class:`~repro.cache.setassoc.SetAssociativeCache`
(replacement lives in one class); the hierarchy keeps its own counters.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .geometry import CacheGeometry
from .setassoc import SetAssociativeCache


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
        self._check_core(core)
        return self._access(core, address)

    def replay(self, core: int, addresses: Iterable[int]) -> int:
        """Loads by ``core``, in order; returns how many hit in L1 or L2.

        The same as calling :meth:`access` on each address in turn,
        with the core checked once.
        """
        self._check_core(core)
        access = self._access
        memory = MemoryLevel.MEMORY
        hits = 0
        for address in addresses:
            if access(core, address) is not memory:
                hits += 1
        return hits

    def _access(self, core: int, address: int) -> MemoryLevel:
        if self.l1[core].lookup(address):
            self.stats.l1_hits += 1
            return MemoryLevel.L1

        if self.l2.lookup(address):
            self.stats.l2_hits += 1
            self._fill_l1(core, address)
            if self.inclusion is InclusionPolicy.EXCLUSIVE:
                # The line moves up; exclusive L2 gives it away.
                self.l2.flush_line(address)
            return MemoryLevel.L2

        self.stats.memory_fetches += 1
        self._fill_l1(core, address)
        if self.inclusion is InclusionPolicy.INCLUSIVE:
            evicted = self.l2.fill(address)
            if evicted is not None:
                self.stats.evictions += 1
                evicted_address = evicted * self.line_bytes
                for other in self.l1:
                    if other.flush_line(evicted_address):
                        self.stats.back_invalidates += 1
        return MemoryLevel.MEMORY

    def _fill_l1(self, core: int, address: int) -> None:
        evicted = self.l1[core].fill(address)
        if evicted is None:
            return
        self.stats.evictions += 1
        if self.inclusion is InclusionPolicy.EXCLUSIVE:
            # Exclusive hierarchies receive L1 victims (never in L2
            # already) into L2 — but only if no *other* core still
            # caches the line privately: spilling a line another L1
            # holds would put it in an L1 and the L2 at once, breaking
            # exclusivity (a real design drops the clean victim; the
            # sharer keeps serving it).
            evicted_address = evicted * self.line_bytes
            if (not any(l1.is_resident(evicted_address)
                        for l1 in self.l1)
                    and self.l2.fill(evicted_address) is not None):
                self.stats.evictions += 1

    def flush_line(self, address: int) -> None:
        """clflush: remove the line from every level and core.

        One instruction flushes one line, so ``flushes`` advances by
        one; whether any level actually held the line is the same
        resident/absent split :class:`CacheStats` tracks (and the
        timing signal Flush+Flush reads).
        """
        self.stats.flushes += 1
        present = self.l2.flush_line(address)
        for l1 in self.l1:
            present = l1.flush_line(address) or present
        if present:
            self.stats.flush_hits += 1
        else:
            self.stats.flush_misses += 1

    def is_resident_l2(self, address: int) -> bool:
        """Shared-level residency (what a cross-core probe can sense)."""
        return self.l2.is_resident(address)

    def is_resident_l1(self, core: int, address: int) -> bool:
        """Private-level residency of one core."""
        self._check_core(core)
        return self.l1[core].is_resident(address)

    def inclusion_holds(self) -> bool:
        """Check the inclusion invariant (for tests).

        Inclusive: every L1-resident line is L2-resident.  Exclusive:
        no line is resident in both an L1 and the L2.
        """
        inclusive = self.inclusion is InclusionPolicy.INCLUSIVE
        for l1 in self.l1:
            for line in l1.resident_lines():
                if self.l2.is_resident(line * self.line_bytes) != inclusive:
                    return False
        return True

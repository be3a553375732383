"""Functional set-associative cache simulator.

The simulator tracks residency only (no data): the attacker's channel is
"which lines are in the cache", and the victim's influence on it is
fully determined by its address stream.  This is the same abstraction
the paper uses for its "clean data" RTL experiments — timing is handled
separately by :mod:`repro.soc`.

It is the only cache array: the single-level cache and every level of
:class:`~repro.cache.multilevel.TwoLevelHierarchy`.  The hierarchy's
loops over loads and flushes probe, fill and empty the arrays' sets
themselves (LRU inline, FIFO and random through
:meth:`~SetAssociativeCache._insert` and
:meth:`~SetAssociativeCache._release`) and count only in the
hierarchy's stats, so a hierarchy's arrays keep their
:class:`CacheStats` at zero.  Loads and flushes have run forms
(:meth:`~SetAssociativeCache.replay`, the array's one loop over loads,
and ``access_lines`` and ``flush_lines``) that take a whole sequence of
addresses in one call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from .geometry import CacheGeometry
from .policies import ReplacementPolicy, make_policy


def _negative(address: int) -> ValueError:
    return ValueError(f"address must be non-negative, got {address}")


@dataclass
class CacheStats:
    """Running hit/miss/flush counters.

    Flushes are counted **per line**: one ``clflush`` is one flush, and
    a whole-cache flush counts every line it invalidates (not one event
    for the whole array), so a defender reading deltas sees the same
    magnitude whichever way the attacker empties the cache.  The
    hit/miss split of flushes — was the flushed line resident? — is the
    very signal Flush+Flush reads (a flush of a resident line must
    write back, a flush of an absent line completes early), so it is
    tracked with the same fidelity the attacker enjoys.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0
    flush_hits: int = 0
    flush_misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when idle)."""
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A residency-only set-associative cache with pluggable replacement.

    Addresses are byte addresses; lines are identified by
    ``address // line_bytes`` and mapped to sets by modulo indexing, as
    in :class:`~repro.cache.geometry.CacheGeometry`, whose power-of-two
    sizes let every operation split an address with two shifts and a
    mask.

    An LRU set (the paper's RISCY L1) is a dict of its resident tags
    in recency order: a hit re-inserts its tag, a miss in a full set
    evicts the first key, and the dict values go unused.  LRU arrays
    keep no way numbers and no policy objects, and their loops write
    the miss inline.  A FIFO or random set keeps a ``tag -> way`` map
    and a ``way -> tag`` list, so an eviction finds its victim's tag
    without scanning the set, and reports fills and invalidations to a
    policy object from :func:`~repro.cache.policies.make_policy`.
    """

    def __init__(self, geometry: CacheGeometry = CacheGeometry(),
                 policy: str = "lru",
                 rng: Optional[random.Random] = None,
                 rng_scope: Any = 0) -> None:
        self.geometry = geometry
        self.policy_name = policy
        self.stats = CacheStats()
        self._num_sets = geometry.num_sets
        # line = address >> offset_bits; set = line & set_mask;
        # tag = line >> set_bits.
        self._offset_bits = geometry.line_bytes.bit_length() - 1
        self._set_bits = geometry.num_sets.bit_length() - 1
        self._set_mask = geometry.num_sets - 1
        self._ways = geometry.ways
        self._sets: List[Dict[int, Any]] = [
            {} for _ in range(geometry.num_sets)
        ]
        # LRU sets are their dicts' key order alone (class docstring).
        self._lru = policy == "lru"
        self._way_tags: Optional[List[List[int]]] = None
        self._occupied: Optional[List[List[bool]]] = None
        self._policies: Optional[List[ReplacementPolicy]] = None
        if self._lru:
            return
        # FIFO and random sets map tag -> way, and way -> tag (meaningful
        # for occupied ways only) for the way a policy names.
        self._way_tags = [
            [0] * geometry.ways for _ in range(geometry.num_sets)
        ]
        self._occupied = [
            [False] * geometry.ways for _ in range(geometry.num_sets)
        ]
        # Without an explicit rng each set gets its own stream, derived
        # from ``rng_scope`` (one per hierarchy level) and the set index;
        # an explicit rng is shared across sets verbatim.
        self._policies = [
            make_policy(policy, geometry.ways, rng, set_index=set_index,
                        rng_scope=rng_scope)
            for set_index in range(geometry.num_sets)
        ]

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def access(self, address: int) -> bool:
        """Load ``address``; return ``True`` on hit, filling on miss."""
        return self.access_lines((address,))[0]

    def access_lines(self, addresses: Iterable[int]) -> List[bool]:
        """Load each address in turn; return whether each one hit (the
        run form of :meth:`access`, through :meth:`replay`)."""
        outcomes: List[bool] = []
        self.replay(addresses, outcomes)
        return outcomes

    def _insert(self, set_index: int, tag: int,
                ways: Dict[int, Any]) -> Optional[int]:
        """Place an absent ``tag`` in a FIFO or random set; return the
        evicted line, if any.  (The loops write the LRU miss inline.)"""
        policy = self._policies[set_index]
        occupied = self._occupied[set_index]
        way_tags = self._way_tags[set_index]
        evicted = None
        if len(ways) == self._ways:
            victim_tag = way_tags[policy.victim(occupied)]
            way = ways.pop(victim_tag)
            evicted = victim_tag * self._num_sets + set_index
        else:
            way = occupied.index(False)
        ways[tag] = way
        way_tags[way] = tag
        occupied[way] = True
        policy.on_access(way)
        return evicted

    def is_resident(self, address: int) -> bool:
        """Non-perturbing residency check (simulator-only observability).

        A real attacker cannot peek without touching the cache; the probe
        primitives in :mod:`repro.channel.primitive` decide whether to use this
        (idealised) or :meth:`access` (Flush+Reload's perturbing reload).
        """
        if address < 0:
            raise _negative(address)
        line = address >> self._offset_bits
        set_index = line & self._set_mask
        tag = line >> self._set_bits
        return tag in self._sets[set_index]

    def flush_line(self, address: int) -> bool:
        """Invalidate the line holding ``address``; return whether present."""
        return self.flush_lines((address,))[0]

    def _release(self, set_index: int, way: int) -> None:
        """Free ``way`` of a FIFO or random set whose tag was just
        popped.  Counts nothing: the loops that remove lines keep their
        own counters."""
        self._occupied[set_index][way] = False
        self._policies[set_index].on_invalidate(way)

    def flush_lines(self, addresses: Iterable[int]) -> List[bool]:
        """Invalidate each address's line in turn; return whether each
        was present.

        The array's one loop over flushes: the counters are written
        back even when an address raises.  Attackers flush a run per
        window phase, and a call per line made a full-path attack 2.6%
        slower on a 2-vCPU x86-64 container (``docs/performance.md``
        §15), so the LRU removal is a dict ``pop`` in the loop.
        """
        offset_bits = self._offset_bits
        set_mask = self._set_mask
        set_bits = self._set_bits
        sets = self._sets
        lru = self._lru
        release = self._release
        results: List[bool] = []
        append = results.append
        try:
            for address in addresses:
                if address < 0:
                    raise _negative(address)
                line = address >> offset_bits
                set_index = line & set_mask
                way = sets[set_index].pop(line >> set_bits, None)
                if way is None:
                    append(False)
                    continue
                append(True)
                if not lru:
                    release(set_index, way)
        finally:
            hits = results.count(True)
            stats = self.stats
            stats.flushes += len(results)
            stats.flush_hits += hits
            stats.flush_misses += len(results) - hits
        return results

    def flush_all(self) -> None:
        """Invalidate the entire cache (the paper's optional flush step).

        Counted per line invalidated, consistently with
        :meth:`flush_line` — every invalidated line was resident, so
        they all land in ``flush_hits``.
        """
        for set_index in range(self.geometry.num_sets):
            invalidated = len(self._sets[set_index])
            self.stats.flushes += invalidated
            self.stats.flush_hits += invalidated
            if not self._lru:
                policy = self._policies[set_index]
                for way in self._sets[set_index].values():
                    policy.on_invalidate(way)
                self._occupied[set_index] = [False] * self._ways
            self._sets[set_index].clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def resident_lines(self) -> List[int]:
        """Line numbers of every resident line (sorted)."""
        lines = []
        for set_index, ways in enumerate(self._sets):
            for tag in ways:
                lines.append(tag * self._num_sets + set_index)
        return sorted(lines)

    def resident_count(self) -> int:
        """Number of resident lines."""
        return sum(len(ways) for ways in self._sets)

    def set_occupancy(self, set_index: int) -> int:
        """Number of resident lines in one set."""
        if not 0 <= set_index < self.geometry.num_sets:
            raise ValueError(
                f"set index must be in [0, {self.geometry.num_sets}), "
                f"got {set_index}"
            )
        return len(self._sets[set_index])

    def replay(self, addresses: Iterable[int],
               outcomes: Optional[List[bool]] = None) -> int:
        """Access a sequence of addresses; return the number of hits.

        The array's one loop over loads, the same as calling
        :meth:`access` on each address in turn.  When ``outcomes`` is
        given, whether each load hit is appended to it.  The counters
        are kept in locals and written back even when an address
        raises, so ``stats`` then reads as the per-access loop would
        have left it.
        """
        offset_bits = self._offset_bits
        set_mask = self._set_mask
        set_bits = self._set_bits
        sets = self._sets
        lru = self._lru
        num_ways = self._ways
        insert = self._insert
        hits = misses = evictions = 0
        try:
            for address in addresses:
                if address < 0:
                    raise _negative(address)
                line = address >> offset_bits
                set_index = line & set_mask
                tag = line >> set_bits
                ways = sets[set_index]
                # Re-inserting a hit keeps the set's dict in recency
                # order.
                way = ways.pop(tag, None)
                if way is not None:
                    ways[tag] = way
                    hits += 1
                    if outcomes is not None:
                        outcomes.append(True)
                    continue
                misses += 1
                if outcomes is not None:
                    outcomes.append(False)
                if lru:
                    # The LRU miss: evict the least recent (first) tag
                    # of a full set, then append the new one.
                    if len(ways) == num_ways:
                        del ways[next(iter(ways))]
                        evictions += 1
                    ways[tag] = True
                elif insert(set_index, tag, ways) is not None:
                    evictions += 1
        finally:
            stats = self.stats
            stats.accesses += hits + misses
            stats.hits += hits
            stats.misses += misses
            stats.evictions += evictions
        return hits

"""Replacement policies for the set-associative cache simulator.

The paper's RISCY L1 is LRU, which the cache arrays keep themselves: an
LRU set is a dict of its resident tags in recency order, so a hit
re-inserts its tag and an eviction takes the first key, with no way
numbers at all.  FIFO and pseudo-random policies are objects here, for
the ablation studies (E8: the victim's PermBits loads do fill sets, yet
every policy recovers the key); only their sets keep ``tag -> way`` and
``way -> tag`` maps, because a policy names its victim by way.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, List, Optional

from ..seeding import derive_rng


def derive_set_rng(set_index: int, scope: Any = 0) -> random.Random:
    """Distinct pseudo-random replacement stream for one cache set.

    Every set of every cache array must draw an *independent* eviction
    sequence: real pseudo-random replacement is per-set state.  Before
    this helper the caches handed each set an identical copy of
    ``derive_rng("replacement-policy", 0)``, so all sets evicted the
    same way sequence in lockstep — correlated "random" replacement
    that understated the policy's effect on eviction-based probes.
    ``scope`` separates cache arrays sharing a hierarchy (per-core L1s
    vs the shared L2) so levels do not correlate either.
    """
    return derive_rng("replacement-policy", scope, set_index)


class ReplacementPolicy(ABC):
    """Chooses a victim way within one cache set.

    One policy instance is created per set; the cache calls
    :meth:`on_access` for every fill and :meth:`victim` when an
    eviction is needed.  Hits are not reported: neither FIFO nor random
    order depends on them, and LRU order is kept by the arrays.
    """

    def __init__(self, ways: int) -> None:
        if ways < 1:
            raise ValueError(f"ways must be positive, got {ways}")
        self.ways = ways

    def on_access(self, way: int) -> None:
        """Note that ``way`` was filled. Default: no-op."""

    @abstractmethod
    def victim(self, occupied: List[bool]) -> int:
        """Pick the way to evict; called only when every way is occupied."""

    def on_invalidate(self, way: int) -> None:
        """Note that ``way`` was invalidated (flush). Default: no-op."""


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out: eviction order ignores re-references."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._queue: List[int] = []

    def on_access(self, way: int) -> None:
        if way not in self._queue:
            self._queue.append(way)

    def victim(self, occupied: List[bool]) -> int:
        for way in self._queue:
            if occupied[way]:
                self._queue.remove(way)  # its refill joins the tail
                return way
        raise RuntimeError("victim() called on a set with no occupied ways")

    def on_invalidate(self, way: int) -> None:
        if way in self._queue:
            self._queue.remove(way)


class RandomPolicy(ReplacementPolicy):
    """Pseudo-random replacement with a seedable generator."""

    def __init__(self, ways: int, rng: Optional[random.Random] = None) -> None:
        super().__init__(ways)
        # Scope-derived default so the eviction stream cannot collide
        # with any attack/noise stream sharing the naked seed 0.  The
        # cache constructors never rely on this fallback: they pass a
        # per-set stream via make_policy(set_index=...) so sets do not
        # evict in lockstep.
        self._rng = rng if rng is not None else derive_rng(
            "replacement-policy", 0
        )

    def victim(self, occupied: List[bool]) -> int:
        candidates = [way for way in range(self.ways) if occupied[way]]
        if not candidates:
            raise RuntimeError("victim() called on a set with no occupied ways")
        return self._rng.choice(candidates)


def make_policy(name: str, ways: int,
                rng: Optional[random.Random] = None, *,
                set_index: Optional[int] = None,
                rng_scope: Any = 0) -> Optional[ReplacementPolicy]:
    """Instantiate a replacement policy by name (``lru``/``fifo``/``random``).

    ``lru`` has no policy object (``None``): the cache arrays keep LRU
    order as their sets' dict order, and allocate no per-set policy
    slots for it.

    An explicit ``rng`` is shared verbatim (the caller owns the stream:
    every set handed the same object draws from one sequence, the
    pre-fix behaviour tests may pin).  Without one, a ``set_index``
    selects the per-set derived stream from :func:`derive_set_rng`.
    """
    if name == "lru":
        return None
    if name == "fifo":
        return FifoPolicy(ways)
    if name == "random":
        if rng is None and set_index is not None:
            rng = derive_set_rng(set_index, rng_scope)
        return RandomPolicy(ways, rng)
    raise ValueError(f"unknown replacement policy {name!r}")

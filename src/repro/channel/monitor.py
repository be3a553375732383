"""Mapping between S-box indices and the cache lines the attacker watches.

With a line of ``L`` words (1 byte each on the paper's platforms) the
16-byte S-box spans ``16 / L`` cache lines, each covering ``L``
consecutive indices.  The attacker's observations are *line*-granular;
this module owns the index-to-line arithmetic, including the paper's
Section III-D point that growing lines obfuscate the low index bits,
and the :class:`EvictionModel` that says when the victim's own
PermBits loads can push a monitored line out before the probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..cache.geometry import CacheGeometry
from ..staticcheck.secrets import secret_params
from ..targets.layout import SBOX_ENTRIES as SBOX_SIZE
from ..targets.layout import TableLayout
from ..targets.lut import index_mask


#: Line tuples of one byte of an S-box index mask, per byte value.
ByteLines = Tuple[Tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _mask_line_tables(line_by_index: Tuple[int, ...]
                      ) -> Tuple[ByteLines, ByteLines]:
    """``(low, high)``: ``low[b]`` holds the distinct lines of the
    indices 0-7 whose bits are set in ``b``, ``high[b]`` those of
    indices 8-15.  Shared by every monitor with the same index map."""
    def by_byte(indices: Sequence[int]) -> ByteLines:
        return tuple(
            tuple(dict.fromkeys(
                line_by_index[index]
                for bit, index in enumerate(indices) if (byte >> bit) & 1
            ))
            for byte in range(256)
        )
    return by_byte(range(8)), by_byte(range(8, SBOX_SIZE))


@dataclass(frozen=True)
class SboxMonitor:
    """Precomputed view of the S-box table through a cache geometry."""

    layout: TableLayout
    geometry: CacheGeometry
    lines: Tuple[int, ...]
    indices_by_line: Dict[int, Tuple[int, ...]]
    line_by_index: Tuple[int, ...]
    address_by_index: Tuple[int, ...]

    @classmethod
    def build(cls, layout: TableLayout, geometry: CacheGeometry,
              addresses: Optional[Sequence[int]] = None) -> "SboxMonitor":
        """Derive the monitored lines for a layout/geometry pair.

        ``addresses`` is the byte address each S-box index loads (a
        victim's ``sbox_load_addresses``); it defaults to the layout's
        one-entry-per-byte table, and differs for packed tables such as
        the reshaped S-box, where two indices share one byte.
        """
        address_by_index = tuple(
            layout.sbox_addresses() if addresses is None else addresses
        )
        line_by_index = tuple(
            geometry.line_of(address) for address in address_by_index
        )
        indices_by_line: Dict[int, List[int]] = {}
        for index, line in enumerate(line_by_index):
            indices_by_line.setdefault(line, []).append(index)
        return cls(
            layout=layout,
            geometry=geometry,
            lines=tuple(sorted(indices_by_line)),
            indices_by_line={
                line: tuple(indices)
                for line, indices in indices_by_line.items()
            },
            line_by_index=line_by_index,
            address_by_index=address_by_index,
        )

    @property
    def universe(self) -> FrozenSet[int]:
        """All monitored line numbers (the candidate universe)."""
        return frozenset(self.lines)

    @property
    def indices_per_line(self) -> int:
        """How many S-box indices one cache line covers."""
        return max(len(v) for v in self.indices_by_line.values())

    def line_for_index(self, index: int) -> int:
        """Cache line number holding S-box entry ``index``."""
        if not 0 <= index < SBOX_SIZE:
            raise ValueError(f"S-box index must be a 4-bit value, got {index}")
        return self.line_by_index[index]

    # The two mask tables are built on first use, so a channel that
    # never takes the fast path never builds them.

    @cached_property
    def lines_by_low_byte(self) -> ByteLines:
        """Lines of S-box indices 0-7, per low byte of an index mask."""
        return _mask_line_tables(self.line_by_index)[0]

    @cached_property
    def lines_by_high_byte(self) -> ByteLines:
        """Lines of S-box indices 8-15, per high byte of an index mask."""
        return _mask_line_tables(self.line_by_index)[1]

    @secret_params("mask")
    def lines_of_mask(self, mask: int) -> FrozenSet[int]:
        """Monitored lines holding the S-box entries set in the 16-bit
        index ``mask`` (bit ``i`` set iff entry ``i`` was loaded).

        ``mask`` comes from the victim's key-dependent indices, so its
        two lookups are declared secret-indexed, as the per-index line
        lookup they replace was through the observer's victim.
        """
        return frozenset(self.lines_by_low_byte[mask & 0xFF]
                         + self.lines_by_high_byte[mask >> 8])

    def indices_for_line(self, line: int) -> Tuple[int, ...]:
        """S-box indices covered by a monitored ``line``."""
        if line not in self.indices_by_line:
            raise ValueError(f"line {line} does not hold S-box entries")
        return self.indices_by_line[line]

    def line_addresses(self) -> List[int]:
        """One representative byte address per monitored line.

        Flush+Reload flushes/reloads these; the first covered index's
        address suffices because residency is line-granular.
        """
        return [
            self.address_by_index[self.indices_by_line[line][0]]
            for line in self.lines
        ]


@dataclass(frozen=True)
class EvictionModel:
    """When the victim's own loads can evict a monitored line, and the
    exact readout of a window in which they can.

    An LRU set keeps the ``ways`` distinct lines most recently used in
    it, whatever it held before.  Each round the victim loads one S-box
    entry per segment and then one PermBits entry per segment, and
    PermBits lines share cache sets with S-box lines.  A visible window
    of up to ``safe_rounds`` rounds can never evict a monitored line, so
    the index mask alone is its readout; :meth:`readout` reads a longer
    window out of its loads into the *contested* sets (the sets where
    eviction cannot be ruled out).
    """

    monitor: SboxMonitor
    #: Longest visible window, in rounds, that cannot evict a
    #: monitored line.
    safe_rounds: int
    #: Monitored lines whose set may overflow within a window.
    contested: FrozenSet[int]
    #: Per S-box index: its line if contested, else ``None``.
    sbox_lines: Tuple[Optional[int], ...]
    #: Per segment, per S-box index: the PermBits line it loads if that
    #: line falls in a contested set, else ``None``.
    perm_lines: Tuple[Tuple[Optional[int], ...], ...]

    @classmethod
    def build(cls, monitor: SboxMonitor,
              perm_load_addresses: Sequence[Sequence[int]],
              rounds: int) -> "EvictionModel":
        """Bound the eviction pressure of a victim's address pattern.

        ``perm_load_addresses`` is the victim's PermBits load address
        per segment and S-box index.  After a monitored line's last
        load in round ``r`` of a window, its set sees at most the
        round-``r`` PermBits loads of the other segments (plus the one
        that loaded it, if that lands in the set), every later round's
        PermBits loads and the set's other monitored lines; the window
        is safe while that count stays below ``ways``.
        """
        geometry = monitor.geometry
        ways = geometry.ways
        num_sets = geometry.num_sets
        monitored: Dict[int, List[int]] = {}
        for line in monitor.lines:
            monitored.setdefault(line % num_sets, []).append(line)
        perm_rows = [[geometry.line_of(address) for address in row]
                     for row in perm_load_addresses]
        reach: Dict[int, List[Set[int]]] = {
            cache_set: [set() for _ in perm_rows] for cache_set in monitored
        }
        for segment, row in enumerate(perm_rows):
            for line in row:
                if line % num_sets in reach:
                    reach[line % num_sets][segment].add(line)
        safe_rounds = rounds
        contested_sets: Set[int] = set()
        for cache_set, lines in monitored.items():
            by_segment = reach[cache_set]
            perm_lines: Set[int] = set().union(*by_segment)
            others = len(lines) - 1
            if perm_lines & set(lines):
                # A PermBits load reads a monitored line itself, which
                # the index mask cannot show.
                contested_sets.add(cache_set)
                safe_rounds = 0
                continue
            if len(perm_lines) + others < ways:
                continue
            contested_sets.add(cache_set)
            per_round = sum(1 for segment in by_segment if segment)
            for line in lines:
                last_round = max(
                    (row[index] in by_segment[segment])
                    + per_round - bool(by_segment[segment])
                    for segment, row in enumerate(perm_rows)
                    for index in monitor.indices_by_line[line]
                )
                if last_round + others >= ways:
                    safe_rounds = 0
                elif per_round:
                    safe_rounds = min(
                        safe_rounds,
                        1 + (ways - 1 - others - last_round) // per_round,
                    )
        contested = frozenset(
            line
            for cache_set in contested_sets
            for line in monitored[cache_set]
        )
        return cls(
            monitor=monitor,
            safe_rounds=safe_rounds,
            contested=contested,
            sbox_lines=tuple(line if line in contested else None
                             for line in monitor.line_by_index),
            perm_lines=tuple(
                tuple(line if line % num_sets in contested_sets else None
                      for line in row)
                for row in perm_rows
            ),
        )

    @secret_params("window")
    def readout(self, window: Sequence[Sequence[int]]) -> FrozenSet[int]:
        """Monitored lines cached after the visible ``window`` — its
        rounds' S-box indices per segment, oldest first — ran through
        an LRU cache whose monitored lines were flushed before it."""
        observed = self.monitor.lines_of_mask(index_mask(window))
        if not self.contested:
            return observed
        sbox_lines = self.sbox_lines
        perm_lines = self.perm_lines
        loads: List[Optional[int]] = []
        for indices in window:
            # A round loads its S-box entries, then its PermBits entries.
            loads += [sbox_lines[index] for index in indices]
            loads += [row[index] for row, index in zip(perm_lines, indices)]
        # Each contested set keeps its ``ways`` most recent distinct
        # lines; loads outside those sets are ``None``.
        recent = dict.fromkeys(reversed(loads))
        recent.pop(None, None)
        num_sets = self.monitor.geometry.num_sets
        by_set: Dict[int, List[int]] = {}
        for line in recent:
            by_set.setdefault(line % num_sets, []).append(line)
        ways = self.monitor.geometry.ways
        kept = {line for lines in by_set.values() for line in lines[:ways]}
        return (observed - self.contested) | (self.contested & kept)

"""The traced table-based (LUT) victim core shared by every SPN target.

GRINCH attacks the software structure of the public GIFT implementation
(github.com/giftcipher/gift, reference [13]): SubCells is one S-box
table load per segment per round, and the bit permutation is one load
per segment from a precomputed scatter table.  PRESENT, GIFT's
ancestor, is written the same way, so both victims run this one round
engine and differ only in data:

* the S-box and the bit permutation (which fix the scatter tables);
* where the key enters the round.  Round ``r`` XORs ``_pre_masks[r-1]``
  into the state before its S-box loads and ``_post_masks[r-1]`` after
  its permutation, and a full encryption ends with ``_final_mask``.
  GIFT adds its ``(U, V)`` round key and round constant after the
  permutation; PRESENT adds ``K_r`` before the S-box layer and
  ``K_{rounds+1}`` at the end.

Every load of :meth:`TracedLutCipher.encrypt_traced` is recorded as a
:class:`~repro.targets.trace.MemoryAccess`, so the cache simulator can
replay the exact address stream a shared cache would see.  The S-box
load address is ``sbox_base + entry_bytes * index`` — the key-dependent
address GRINCH observes.  The scatter table lives at a disjoint address
range, as in the real binary, so it only interferes through cache-set
collisions (a Prime+Probe concern, exercised by the ablation
benchmarks).

Each cipher writes its own traced SubCells loop
(:meth:`TracedLutCipher._sub_cells_traced`) that indexes its *named*
S-box constant: the leakage analyzer resolves table sites by name, so a
generic ``self._sbox[index]`` would hide the 4-bit S-box site.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from ..staticcheck.secrets import secret_attributes, secret_params
from .layout import SBOX_ENTRIES, TableLayout
from .trace import EncryptionTrace, MemoryAccess


@lru_cache(maxsize=None)
def scatter_table(permutation: Tuple[int, ...]
                  ) -> Tuple[Tuple[int, ...], ...]:
    """Precompute a bit permutation as ``table[segment][nibble] ->
    scattered bits``.

    This is the classic LUT realisation of a bit permutation: the four
    bits of ``nibble`` sitting at segment ``segment`` are placed at their
    permuted positions; OR-ing the entries of all segments applies the
    full permutation.  Built once per permutation tuple.
    """
    table = []
    for segment in range(len(permutation) // 4):
        row = []
        for nibble in range(SBOX_ENTRIES):
            scattered = 0
            for bit in range(4):
                if (nibble >> bit) & 1:
                    scattered |= 1 << permutation[4 * segment + bit]
            row.append(scattered)
        table.append(tuple(row))
    return tuple(table)


@lru_cache(maxsize=None)
def _fused_sbox_scatter(sbox: Tuple[int, ...],
                        permutation: Tuple[int, ...]
                        ) -> Tuple[Tuple[int, ...], ...]:
    """Fuse SubCells into the scatter table: ``fused[seg][x]`` is the
    scattered contribution of input nibble ``x`` at segment ``seg``,
    i.e. ``scatter[seg][SBOX[x]]``.  One table load replaces the
    S-box load + scatter load pair of the LUT round function."""
    return tuple(
        tuple(row[sbox[x]] for x in range(SBOX_ENTRIES))
        for row in scatter_table(permutation)
    )


@lru_cache(maxsize=None)
def _byte_pair_tables(sbox: Tuple[int, ...],
                      permutation: Tuple[int, ...], width: int
                      ) -> Tuple[Tuple[int, ...], ...]:
    """Fuse two segments into one byte-indexed table per state byte.

    ``tables[b][x]`` covers segments ``2b`` (low nibble of ``x``) and
    ``2b + 1`` (high nibble): its low ``width`` bits are the two
    nibbles' fused S-box+scatter contribution, and the 16 bits above
    them mark which S-box entries the two loads read (bit ``i`` set iff
    entry ``i`` was loaded).  OR-ing one entry per byte yields the
    permuted state and the round's index presence in one integer.
    Built once per (S-box, permutation, width), shared by every victim.
    """
    fused = _fused_sbox_scatter(sbox, permutation)
    return tuple(
        tuple(
            low_row[x & 0xF] | high_row[x >> 4]
            | ((1 << (x & 0xF)) | (1 << (x >> 4))) << width
            for x in range(256)
        )
        for low_row, high_row in zip(fused[0::2], fused[1::2])
    )


def index_mask(indices_by_round: Sequence[Sequence[int]]) -> int:
    """The 16-bit S-box index mask of per-round index rows: bit ``i``
    is set iff some row holds index ``i`` (the reference form of
    :meth:`TracedLutCipher.sbox_index_mask`)."""
    mask = 0
    for indices in indices_by_round:
        for index in indices:
            mask |= 1 << index
    return mask


@secret_attributes("_pre_masks", "_post_masks", "_final_mask")
class TracedLutCipher:
    """LUT-based SPN cipher that records every table load it performs.

    Subclasses compute their key schedule, turn it into the three mask
    sets and pass them here, and implement :meth:`_sub_cells_traced`
    and ``decrypt``.  :meth:`encrypt` and :meth:`sbox_indices_by_round`
    are the trace-free fast paths (one fused S-box/scatter load per
    segment); :meth:`encrypt_traced` is the address-stream path.  All
    three are proven equal by the official vectors and the hypothesis
    sweeps of the test suite.
    """

    def __init__(self, width: int, rounds: int, layout: TableLayout,
                 sbox: Tuple[int, ...], permutation: Tuple[int, ...],
                 pre_masks: Sequence[int], post_masks: Sequence[int],
                 final_mask: int) -> None:
        self.width = width
        self.rounds = rounds
        self.layout = layout
        self._segments = width // 4
        self._scatter = scatter_table(permutation)
        self._fused_sbox_scatter = _fused_sbox_scatter(sbox, permutation)
        self._byte_pair_tables = _byte_pair_tables(sbox, permutation, width)
        # Per-(index, segment) load addresses, hoisted out of the traced
        # loops.
        self._sbox_address_table: Tuple[int, ...] = tuple(
            layout.sbox_addresses()
        )
        self._perm_address_table: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(layout.perm_address(segment, nibble, self._segments)
                  for nibble in range(SBOX_ENTRIES))
            for segment in range(self._segments)
        )
        # The PermBits load of a segment follows from its S-box index:
        # the scatter entry of the substituted nibble.
        self._perm_load_table: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(row[sbox[index]] for index in range(SBOX_ENTRIES))
            for row in self._perm_address_table
        )
        self._pre_masks: Tuple[int, ...] = tuple(pre_masks)
        self._post_masks: Tuple[int, ...] = tuple(post_masks)
        self._final_mask = final_mask

    @property
    def sbox_load_addresses(self) -> Tuple[int, ...]:
        """Byte address each S-box index loads, in index order."""
        return self._sbox_address_table

    @property
    def perm_load_addresses(self) -> Tuple[Tuple[int, ...], ...]:
        """Byte address of the PermBits load of each segment, per S-box
        index of that segment, in segment then index order."""
        return self._perm_load_table

    def encrypt(self, plaintext: int) -> int:
        """Encrypt one block on the trace-free fast path.

        Runs the same LUT round function as :meth:`encrypt_traced` but
        never allocates :class:`~repro.targets.trace.MemoryAccess`
        records.
        """
        if not 0 <= plaintext < (1 << self.width):
            raise ValueError(f"block must be a {self.width}-bit integer")
        state = plaintext
        fused = self._fused_sbox_scatter
        pre = self._pre_masks
        post = self._post_masks
        segments = self._segments
        for round_index in range(self.rounds):
            state ^= pre[round_index]
            permuted = 0
            for segment in range(segments):
                permuted |= fused[segment][(state >> (4 * segment)) & 0xF]
            state = permuted ^ post[round_index]
        return state ^ self._final_mask

    def encrypt_traced(self, plaintext: int,
                       max_rounds: Optional[int] = None
                       ) -> EncryptionTrace:
        """Encrypt one block, recording all table loads.

        ``max_rounds`` bounds tracing (and computation) for experiments
        that only need the early rounds — running every round per probe
        would dominate the Monte-Carlo sweeps for no extra information.
        When bounded, ``ciphertext`` holds the state after ``max_rounds``
        rounds (without the final mask) rather than the real ciphertext.
        """
        if not 0 <= plaintext < (1 << self.width):
            raise ValueError(f"block must be a {self.width}-bit integer")
        limit = self.rounds if max_rounds is None else max_rounds
        if not 1 <= limit <= self.rounds:
            raise ValueError(f"max_rounds must be in [1, {self.rounds}]")
        trace = EncryptionTrace(plaintext=plaintext, ciphertext=0)
        state = plaintext
        for round_index in range(1, limit + 1):
            state ^= self._pre_masks[round_index - 1]
            state = self._sub_cells_traced(state, round_index, trace)
            state = self._perm_bits_traced(state, round_index, trace)
            state ^= self._post_masks[round_index - 1]
        if limit == self.rounds:
            state ^= self._final_mask
        trace.ciphertext = state
        return trace

    def sbox_indices_by_round(self, plaintext: int, max_rounds: int
                              ) -> List[List[int]]:
        """Per-round S-box indices, without trace-object overhead.

        Semantically equal to reading the ``sbox`` accesses off
        :meth:`encrypt_traced` (asserted by the test suite); used by the
        attack's fast observation path, where the million-encryption
        sweeps of Table I cannot afford building
        :class:`~repro.targets.trace.MemoryAccess` records.
        """
        if not 0 <= plaintext < (1 << self.width):
            raise ValueError(f"block must be a {self.width}-bit integer")
        if not 1 <= max_rounds <= self.rounds:
            raise ValueError(f"max_rounds must be in [1, {self.rounds}]")
        indices_by_round: List[List[int]] = []
        state = plaintext
        fused = self._fused_sbox_scatter
        pre = self._pre_masks
        post = self._post_masks
        segments = self._segments
        for round_index in range(max_rounds):
            state ^= pre[round_index]
            indices = [(state >> (4 * segment)) & 0xF
                       for segment in range(segments)]
            indices_by_round.append(indices)
            permuted = 0
            for segment, index in enumerate(indices):
                permuted |= fused[segment][index]
            state = permuted ^ post[round_index]
        return indices_by_round

    def sbox_index_mask(self, plaintext: int, first_round: int,
                        last_round: int) -> int:
        """S-box entries loaded in rounds ``first_round..last_round``, as
        one 16-bit mask (bit ``i`` set iff entry ``i`` was loaded).

        Equal to :func:`index_mask` over
        ``sbox_indices_by_round(plaintext, last_round)[first_round - 1:]``
        (asserted by the test suite), but a round is one byte-pair table
        load per state byte: the fast observation path's victim call.
        """
        if not 0 <= plaintext < (1 << self.width):
            raise ValueError(f"block must be a {self.width}-bit integer")
        if not 1 <= last_round <= self.rounds:
            raise ValueError(f"last_round must be in [1, {self.rounds}]")
        if not 1 <= first_round <= last_round:
            raise ValueError(f"first_round must be in [1, {last_round}]")
        tables = self._byte_pair_tables
        pre = self._pre_masks
        post = self._post_masks
        width = self.width
        state_bits = (1 << width) - 1
        state_bytes = width // 8
        mask = 0
        state = plaintext
        for round_index in range(last_round):
            state ^= pre[round_index]
            loaded = 0
            for table, byte in zip(tables,
                                   state.to_bytes(state_bytes, "little")):
                loaded |= table[byte]
            if round_index >= first_round - 1:
                mask |= loaded >> width
            state = (loaded & state_bits) ^ post[round_index]
        return mask

    def _sub_cells_traced(self, state: int, round_index: int,
                          trace: EncryptionTrace) -> int:
        """SubCells through the cipher's named S-box table, recording
        one ``"sbox"`` access per segment."""
        raise NotImplementedError

    @secret_params("state")
    def _perm_bits_traced(self, state: int, round_index: int,
                          trace: EncryptionTrace) -> int:
        result = 0
        addresses = self._perm_address_table
        for segment in range(self._segments):
            nibble = (state >> (4 * segment)) & 0xF
            trace.append(
                MemoryAccess(
                    address=addresses[segment][nibble],
                    round_index=round_index,
                    segment=segment,
                    table="perm",
                    index=segment * 16 + nibble,
                )
            )
            result |= self._scatter[segment][nibble]
        return result

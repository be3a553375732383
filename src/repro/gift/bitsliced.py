"""Bitsliced (batch-first) GIFT backend: thousands of blocks per call.

The scalar fast path (:mod:`repro.gift.lut`, PR 5) made a *single*
``encrypt()`` allocation-free; this module is the next order of
magnitude.  Following the word-sliced round structure of the bluelight
``GiftRound.bsv`` hardware implementation, the state of ``N`` blocks is
held as a ``(width, N)`` bit-matrix (one row per state bit, one column
per block) and every round is three whole-matrix operations:

* **SubCells** — the GIFT S-box as its boolean network (the same
  share-level sequence the bitsliced GIFT-COFB reference uses),
  applied to the four bit-rows of every nibble at once.  No lookup
  table exists on this path, so no secret-indexed load exists either:
  the staticcheck analyzer confirms *zero* table-lookup sinks.
* **PermBits** — a single row gather ``state = state[gather]``; the
  gather indices are the public inverse permutation (composed with the
  S-box's output-bit swap), never secret data.
* **AddRoundKey** — one broadcast XOR of a precomputed ``(width,)``
  0/1 mask row per round (round-key halves fused with the round
  constant, exactly as the scalar paths precompute
  ``_inject_masks``).

``encrypt_batch`` is validated bit-exact against
:class:`repro.gift.cipher.GiftCipher` and ``sbox_indices_batch``
against :meth:`repro.gift.lut.TracedGiftCipher.sbox_indices_by_round`
by the official vectors and the hypothesis sweeps in
``tests/gift/test_bitsliced.py``.  The bit-matrix layout itself (block
packing, mask rows, nibble extraction) is shared with the PRESENT
backend through :mod:`repro.bitmatrix`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..bitmatrix import (
    mask_row,
    nibble_indices,
    pack_blocks,
    round_limit,
    unpack_blocks,
)
from ..staticcheck.secrets import secret_params
from .constants import constant_mask
from .cipher import round_key_mask
from .keyschedule import round_keys as schedule_round_keys
from .permutation import inverse_permutation_for_width


#: The S-box's output-bit swap (logical output bit 0 is computed into
#: row 3 of each nibble and vice versa), folded into the PermBits
#: gather so SubCells needs no row copies.
def _swapped(position: int) -> int:
    if position % 4 == 0:
        return position + 3
    if position % 4 == 3:
        return position - 3
    return position


class BitslicedGiftCipher:
    """A batch GIFT instance bound to an explicit round-key schedule.

    Built either from a master key (:class:`BitslicedGift64` /
    :class:`BitslicedGift128`, standard schedule) or from any scalar
    victim's already-expanded ``(U, V)`` schedule (:meth:`from_victim`)
    — the latter keeps key-schedule countermeasure subclasses (hardened
    schedule, reshaped S-box) batch-equivalent for free, since both
    only change the schedule or the table layout, never the round
    function.
    """

    def __init__(self, width: int, rounds: int,
                 round_keys: Sequence[Tuple[int, int]]) -> None:
        if width not in (64, 128):
            raise ValueError(
                f"GIFT only defines 64- and 128-bit states, got {width}"
            )
        if rounds < 1:
            raise ValueError(f"round count must be positive, got {rounds}")
        if len(round_keys) < rounds:
            raise ValueError(
                f"need {rounds} round keys, got {len(round_keys)}"
            )
        self.width = width
        self.rounds = rounds
        self._segments = width // 4
        inverse = inverse_permutation_for_width(width)
        # PermBits as a row gather, with the SubCells output-bit swap
        # composed in: out[dest] = raw_after_network[swap(inv[dest])].
        self._gather = np.array(
            [_swapped(inverse[dest]) for dest in range(width)],
            dtype=np.intp,
        )
        self._inject = np.stack([
            mask_row(
                round_key_mask(u, v, width) ^ constant_mask(index, width),
                width,
            )
            for index, (u, v) in enumerate(round_keys[:rounds], start=1)
        ])

    @classmethod
    def from_victim(cls, victim: Any) -> "BitslicedGiftCipher":
        """Bitslice a scalar GIFT victim's expanded schedule.

        Works for any :class:`~repro.gift.lut.TracedGiftCipher`
        subclass, including the countermeasure variants: the hardened
        schedule only overrides ``compute_round_keys`` (mirrored here
        by reading the expanded keys) and the reshaped S-box only
        changes load *addresses*, never values.
        """
        round_keys = getattr(victim, "_round_keys", None)
        if round_keys is None:
            round_keys = victim.compute_round_keys()
        return cls(victim.width, victim.rounds, round_keys)

    @staticmethod
    def _sub_cells(state: np.ndarray) -> None:
        """The GIFT S-box boolean network on every nibble's bit-rows.

        Pure XOR/AND/OR on 0/1 matrices — no table, no secret-indexed
        subscript.  The final output swap (logical bit 0 <-> bit 3) is
        *not* applied here; it is composed into the PermBits gather.
        """
        s0 = state[0::4]
        s1 = state[1::4]
        s2 = state[2::4]
        s3 = state[3::4]
        s1 ^= s0 & s2
        s0 ^= s1 & s3
        s2 ^= s0 | s1
        s3 ^= s2
        s1 ^= s3
        s3 ^= 1
        s2 ^= s0 & s1

    def _round(self, state: np.ndarray, round_index: int) -> np.ndarray:
        self._sub_cells(state)
        state = state[self._gather]
        state ^= self._inject[round_index - 1][:, None]
        return state

    @secret_params("plaintexts")
    def encrypt_batch(self, plaintexts: Sequence[int]) -> List[int]:
        """Encrypt a whole batch; ``result[n] == encrypt(plaintexts[n])``."""
        state = pack_blocks(plaintexts, self.width)
        for round_index in range(1, self.rounds + 1):
            state = self._round(state, round_index)
        return unpack_blocks(state)

    @secret_params("plaintexts")
    def sbox_indices_batch(self, plaintexts: Sequence[int],
                           max_rounds: Optional[int] = None
                           ) -> np.ndarray:
        """Per-round pre-S-box nibbles for a whole batch.

        Returns a ``(max_rounds, segments, N)`` uint8 array such that
        ``result[r - 1, s, n] ==
        victim.sbox_indices_by_round(plaintexts[n], max_rounds)[r-1][s]``.
        """
        limit = round_limit(max_rounds, self.rounds)
        state = pack_blocks(plaintexts, self.width)
        indices = np.empty((limit, self._segments, state.shape[1]),
                           dtype=np.uint8)
        for round_index in range(1, limit + 1):
            indices[round_index - 1] = nibble_indices(state)
            state = self._round(state, round_index)
        return indices


class BitslicedGift64(BitslicedGiftCipher):
    """Bitsliced GIFT-64 from a master key (28 rounds)."""

    ROUNDS = 28

    def __init__(self, master_key: int, rounds: int = ROUNDS) -> None:
        if not 0 <= master_key < (1 << 128):
            raise ValueError("master key must be a 128-bit integer")
        super().__init__(
            64, rounds, schedule_round_keys(master_key, rounds, 64)
        )


class BitslicedGift128(BitslicedGiftCipher):
    """Bitsliced GIFT-128 from a master key (40 rounds)."""

    ROUNDS = 40

    def __init__(self, master_key: int, rounds: int = ROUNDS) -> None:
        if not 0 <= master_key < (1 << 128):
            raise ValueError("master key must be a 128-bit integer")
        super().__init__(
            128, rounds, schedule_round_keys(master_key, rounds, 128)
        )


__all__ = [
    "BitslicedGift64",
    "BitslicedGift128",
    "BitslicedGiftCipher",
]

"""Bitsliced (batch-first) PRESENT backend.

The thin PRESENT counterpart of :mod:`repro.gift.bitsliced`: the state
of ``N`` blocks is a ``(64, N)`` 0/1 bit-matrix and every round is
AddRoundKey (broadcast XOR of a precomputed key row), SubCells, and
the P-layer as one public row gather — followed by the schedule's
final post-whitening key, exactly as the scalar paths apply it.  The
bit-matrix layout is the one :mod:`repro.bitmatrix` defines for both
backends.

PRESENT's S-box is realised LUT-free from its algebraic normal form:
each output bit is the XOR of a fixed set of input-bit monomials (the
Moebius transform of the truth table, derived and re-verified against
``PRESENT_SBOX`` by the test suite).  As on the GIFT path, no lookup
table means no secret-indexed load for staticcheck to flag.

``sbox_indices_batch`` mirrors the scalar victim exactly: PRESENT XORs
the round key in *before* SubCells, so the recorded indices — round
1's included — are the key-XORed nibbles.
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
from .cipher import (
    PLAYER_INV,
    PRESENT_ROUNDS,
    PRESENT_SBOX,
    _key_schedule_80,
    _key_schedule_128,
)


def _anf_monomials(table: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """ANF monomial masks per output bit (Moebius transform).

    ``result[bit]`` lists the 4-bit monomial masks whose product terms
    XOR to output ``bit``; mask 0 is the constant-1 term.
    """
    per_bit = []
    for bit in range(4):
        coeffs = [(table[x] >> bit) & 1 for x in range(16)]
        step = 1
        while step < 16:
            for base in range(0, 16, 2 * step):
                for j in range(base, base + step):
                    coeffs[j + step] ^= coeffs[j]
            step *= 2
        per_bit.append(tuple(m for m in range(16) if coeffs[m]))
    return tuple(per_bit)


#: The PRESENT S-box as ANF monomial sets, one tuple per output bit.
PRESENT_SBOX_ANF: Tuple[Tuple[int, ...], ...] = _anf_monomials(PRESENT_SBOX)


class BitslicedPresent:
    """Batch PRESENT bound to an 80- or 128-bit key schedule."""

    def __init__(self, master_key: int, key_bits: int = 80,
                 rounds: int = PRESENT_ROUNDS) -> None:
        if not 1 <= rounds <= PRESENT_ROUNDS:
            raise ValueError(
                f"round count must be in [1, {PRESENT_ROUNDS}], got {rounds}"
            )
        if key_bits == 80:
            round_keys = _key_schedule_80(master_key)
        elif key_bits == 128:
            round_keys = _key_schedule_128(master_key)
        else:
            raise ValueError(
                f"PRESENT keys are 80 or 128 bits, got {key_bits}"
            )
        self.width = 64
        self.key_bits = key_bits
        self.rounds = rounds
        self.master_key = master_key
        self._segments = 16
        self._gather = np.array(PLAYER_INV, dtype=np.intp)
        self._key_rows = np.stack([mask_row(k, 64) for k in round_keys])

    @classmethod
    def from_victim(cls, victim: Any) -> "BitslicedPresent":
        """Bitslice a scalar :class:`~repro.present.lut.TracedPresent`."""
        return cls(victim.master_key, key_bits=victim.key_bits,
                   rounds=victim.rounds)

    @staticmethod
    def _sub_cells(state: np.ndarray) -> np.ndarray:
        """PRESENT's S-box from its ANF, on every nibble's bit-rows."""
        inputs = (state[0::4], state[1::4], state[2::4], state[3::4])
        # Shared monomial products across the four output bits.
        monomials = {}
        for masks in PRESENT_SBOX_ANF:
            for mask in masks:
                if mask in monomials:
                    continue
                if mask == 0:
                    term = np.ones_like(inputs[0])
                else:
                    term = None
                    for bit in range(4):
                        if (mask >> bit) & 1:
                            term = (inputs[bit] if term is None
                                    else term & inputs[bit])
                monomials[mask] = term
        out = np.empty_like(state)
        for bit, masks in enumerate(PRESENT_SBOX_ANF):
            acc = monomials[masks[0]].copy()
            for mask in masks[1:]:
                acc ^= monomials[mask]
            out[bit::4] = acc
        return out

    @secret_params("plaintexts")
    def encrypt_batch(self, plaintexts: Sequence[int]) -> List[int]:
        """Encrypt a whole batch; ``result[n] == encrypt(plaintexts[n])``.

        Matches the scalar victim's semantics: ``rounds`` S-box rounds
        and then the schedule's next key as post-whitening.
        """
        state = pack_blocks(plaintexts, self.width)
        for round_index in range(self.rounds):
            state ^= self._key_rows[round_index][:, None]
            state = self._sub_cells(state)
            state = state[self._gather]
        state ^= self._key_rows[self.rounds][:, None]
        return unpack_blocks(state)

    @secret_params("plaintexts")
    def sbox_indices_batch(self, plaintexts: Sequence[int],
                           max_rounds: Optional[int] = None
                           ) -> np.ndarray:
        """Per-round key-XORed nibbles for a whole batch.

        ``result[r - 1, s, n]`` equals
        ``victim.sbox_indices_by_round(plaintexts[n], max_rounds)[r-1][s]``.
        """
        limit = round_limit(max_rounds, self.rounds)
        state = pack_blocks(plaintexts, self.width)
        indices = np.empty((limit, self._segments, state.shape[1]),
                           dtype=np.uint8)
        for round_index in range(limit):
            state ^= self._key_rows[round_index][:, None]
            indices[round_index] = nibble_indices(state)
            state = self._sub_cells(state)
            state = state[self._gather]
        return indices


__all__ = [
    "BitslicedPresent",
    "PRESENT_SBOX_ANF",
]

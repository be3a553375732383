"""Table-based (lookup-table) PRESENT victim with memory tracing.

GIFT's ancestor on the shared round engine of :mod:`repro.targets.lut`:
the S-box layer is one table load per segment per round and the P-layer
is one load per segment from a precomputed scatter table.  The
structural difference that matters for GRINCH is *where* the key
enters: PRESENT XORs the full 64-bit round key into the state *before*
the S-box layer (the engine's pre-masks), so the monitored S-box index
of a round-``t`` target lives in round ``t`` itself
(``probe_round_offset = 0``) and even round 1's indices are
key-dependent.
"""

from __future__ import annotations

from typing import List

from ..staticcheck.secrets import secret_params
from ..targets.layout import TableLayout
from ..targets.lut import TracedLutCipher
from ..targets.trace import EncryptionTrace, MemoryAccess
from .cipher import (
    PLAYER,
    PRESENT_ROUNDS,
    PRESENT_SBOX,
    PRESENT_SBOX_INV,
    _key_schedule_80,
    _key_schedule_128,
    _p_layer,
    _sbox_layer,
)


class TracedPresent(TracedLutCipher):
    """LUT-based PRESENT that records every table load it performs.

    Functionally identical to :class:`repro.present.cipher.Present`
    (cross-checked against the official CHES 2007 vectors in the test
    suite).  When constructed with fewer than the full 31 rounds, the
    post-whitening key of the *next* schedule entry is still applied so
    partial-round victims stay invertible and reference-checkable.
    """

    #: Registry name consumed by ``repro.targets.resolve_target_for``.
    attack_target = "present80"
    #: The round key enters before the monitored S-box layer.
    probe_round_offset = 0

    def __init__(self, master_key: int, key_bits: int = 80,
                 rounds: int = PRESENT_ROUNDS,
                 layout: TableLayout = TableLayout()) -> None:
        if not 1 <= rounds <= PRESENT_ROUNDS:
            raise ValueError(
                f"round count must be in [1, {PRESENT_ROUNDS}], got {rounds}"
            )
        if key_bits == 80:
            self._round_keys = _key_schedule_80(master_key)
        elif key_bits == 128:
            self._round_keys = _key_schedule_128(master_key)
            self.attack_target = "present128"
        else:
            raise ValueError(
                f"PRESENT keys are 80 or 128 bits, got {key_bits}"
            )
        self.key_bits = key_bits
        self.master_key = master_key
        # K_r enters before round r's S-box layer; the schedule's next
        # entry whitens the output.
        super().__init__(
            64, rounds, layout, PRESENT_SBOX, PLAYER,
            pre_masks=self._round_keys[:rounds],
            post_masks=(0,) * rounds,
            final_mask=self._round_keys[rounds],
        )

    @property
    def round_keys(self) -> List[int]:
        """The full schedule (32 entries for 31 rounds)."""
        return self._round_keys

    def decrypt(self, ciphertext: int) -> int:
        """Decrypt one block (not traced)."""
        if not 0 <= ciphertext < (1 << 64):
            raise ValueError("PRESENT blocks are 64-bit integers")
        state = ciphertext ^ self._round_keys[self.rounds]
        for round_index in range(self.rounds - 1, -1, -1):
            state = _p_layer(state, inverse=True)
            state = _sbox_layer(state, inverse=True)
            state ^= self._round_keys[round_index]
        return state

    @secret_params("state")
    def _sub_cells_traced(self, state: int, round_index: int,
                          trace: EncryptionTrace) -> int:
        # AddRoundKey has already happened: every index below is
        # key-dependent — round 1 included, unlike GIFT.
        result = 0
        addresses = self._sbox_address_table
        for segment in range(self._segments):
            index = (state >> (4 * segment)) & 0xF
            trace.append(
                MemoryAccess(
                    address=addresses[index],
                    round_index=round_index,
                    segment=segment,
                    table="sbox",
                    index=index,
                )
            )
            result |= PRESENT_SBOX[index] << (4 * segment)
        return result


__all__ = ["TracedPresent", "PRESENT_SBOX_INV"]

"""Table-based (lookup-table) GIFT victim implementation with memory tracing.

This mirrors the software structure of the public GIFT implementation
the paper attacks (github.com/giftcipher/gift, reference [13]): SubCells
is one S-box table load per segment per round, and PermBits is one load
per segment from a precomputed scatter table.  The round engine is the
shared :class:`~repro.targets.lut.TracedLutCipher`; this module supplies
GIFT's key entry (the ``(U, V)`` round key and round constant XORed in
after PermBits), its traced SubCells over :data:`GIFT_SBOX`, and
``decrypt``.

The PermBits table is key-*independent* in round 1 but correlated with
S-box outputs in later rounds.
"""

from __future__ import annotations

from typing import List, Tuple

from ..staticcheck.secrets import secret_params
from ..targets.layout import TableLayout
from ..targets.lut import TracedLutCipher
from ..targets.trace import EncryptionTrace, MemoryAccess
from .cipher import round_key_mask
from .constants import constant_mask
from .keyschedule import round_keys
from .permutation import inverse_permutation_for_width, permutation_for_width, permute
from .sbox import GIFT_SBOX, GIFT_SBOX_INV


@secret_params("state")
def _sub_cells_inverse(state: int, width: int) -> int:
    result = 0
    for segment in range(width // 4):
        nibble = (state >> (4 * segment)) & 0xF
        result |= GIFT_SBOX_INV[nibble] << (4 * segment)
    return result


class TracedGiftCipher(TracedLutCipher):
    """LUT-based GIFT that records every table load it performs.

    Functionally identical to :class:`repro.gift.cipher.GiftCipher`
    (cross-checked in the test suite); additionally produces the address
    stream used as the victim side of the cache-attack simulation.
    """

    def __init__(self, master_key: int, width: int, rounds: int,
                 layout: TableLayout = TableLayout()) -> None:
        if width not in (64, 128):
            raise ValueError(f"GIFT only defines 64- and 128-bit states, got {width}")
        if not 0 <= master_key < (1 << 128):
            raise ValueError("master key must be a 128-bit integer")
        if rounds < 1:
            raise ValueError(f"round count must be positive, got {rounds}")
        # Set before the engine's __init__: compute_round_keys(), which
        # subclasses override, reads them.
        self.width = width
        self.rounds = rounds
        self.master_key = master_key
        self._round_keys: List[Tuple[int, int]] = self.compute_round_keys()
        # AddRoundKey's (U, V) expansion XOR the round constant, folded
        # into one full-state mask per round after PermBits.  Built
        # *after* compute_round_keys() so key-schedule-hardened
        # subclasses feed their own keys in.
        super().__init__(
            width, rounds, layout, GIFT_SBOX, permutation_for_width(width),
            pre_masks=(0,) * rounds,
            post_masks=[
                round_key_mask(u, v, width) ^ constant_mask(round_index, width)
                for round_index, (u, v) in enumerate(self._round_keys, start=1)
            ],
            final_mask=0,
        )
        self._inverse_permutation = inverse_permutation_for_width(width)

    def compute_round_keys(self) -> List[Tuple[int, int]]:
        """Return the ``(U, V)`` round keys for all rounds.

        Subclasses override this to model key-schedule countermeasures
        (the paper's second proposed protection hardens UpdateKey).
        """
        return round_keys(self.master_key, self.rounds, self.width)

    def decrypt(self, ciphertext: int) -> int:
        """Decrypt one block (not traced).

        GRINCH only ever observes encryptions, so no decryption address
        stream is modelled; the inverse rounds use the same round keys
        as :meth:`encrypt`, so key-schedule-hardened subclasses stay
        self-consistent.
        """
        if not 0 <= ciphertext < (1 << self.width):
            raise ValueError(f"block must be a {self.width}-bit integer")
        inverse_perm = self._inverse_permutation
        inject = self._post_masks
        state = ciphertext
        for round_index in range(self.rounds, 0, -1):
            state = permute(state ^ inject[round_index - 1], inverse_perm)
            state = _sub_cells_inverse(state, self.width)
        return state

    @secret_params("state")
    def _sub_cells_traced(self, state: int, round_index: int,
                          trace: EncryptionTrace) -> int:
        # The state is key-dependent from round 2 on; the S-box load
        # below is the secret-indexed access GRINCH observes.
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
            result |= GIFT_SBOX[index] << (4 * segment)
        return result


class TracedGift64(TracedGiftCipher):
    """Traced LUT implementation of GIFT-64 (the paper's victim)."""

    def __init__(self, master_key: int, rounds: int = 28,
                 layout: TableLayout = TableLayout()) -> None:
        super().__init__(master_key, width=64, rounds=rounds, layout=layout)


class TracedGift128(TracedGiftCipher):
    """Traced LUT implementation of GIFT-128."""

    def __init__(self, master_key: int, rounds: int = 40,
                 layout: TableLayout = TableLayout()) -> None:
        super().__init__(master_key, width=128, rounds=rounds, layout=layout)

"""GIFT key schedule (shared by GIFT-64 and GIFT-128).

The 128-bit key state is viewed as eight 16-bit words ``k7 || ... || k0``
(``k0`` least significant).  Each round extracts a round key from the low
words and then rotates the whole state 32 bits to the right, applying
local rotations (``>>> 2`` and ``>>> 12``) to the two words that were just
consumed — exactly the "Update Key" box in Fig. 1 of the GRINCH paper.

Because the state rotates a full 32 bits per round, rounds 1-4 consume
the four *disjoint* 32-bit quarters of the master key.  That is the
property GRINCH leans on: recovering the round keys of rounds 1-4
recovers the entire 128-bit master key with no additional algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..staticcheck.secrets import secret_attributes

KEY_BITS: int = 128
_WORD_MASK: int = 0xFFFF


def _rotate_right_16(word: int, amount: int) -> int:
    amount %= 16
    return ((word >> amount) | (word << (16 - amount))) & _WORD_MASK


@secret_attributes("value")
@dataclass
class GiftKeyState:
    """Mutable 128-bit GIFT key state.

    Parameters
    ----------
    value:
        The 128-bit key state as an integer (``k7`` in the top 16 bits).
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << KEY_BITS):
            raise ValueError("key must be a 128-bit integer")

    def word(self, index: int) -> int:
        """Return 16-bit word ``k<index>`` of the current state."""
        if not 0 <= index < 8:
            raise ValueError(f"word index must be in [0, 8), got {index}")
        return (self.value >> (16 * index)) & _WORD_MASK

    def words(self) -> Tuple[int, ...]:
        """Return ``(k0, ..., k7)`` of the current state."""
        return tuple(self.word(i) for i in range(8))

    def round_key(self, width: int) -> Tuple[int, int]:
        """Extract the round key ``(U, V)`` for the current round.

        GIFT-64 uses 16-bit halves ``U = k1`` and ``V = k0``; GIFT-128
        uses 32-bit halves ``U = k5 || k4`` and ``V = k1 || k0``.
        """
        if width == 64:
            return self.word(1), self.word(0)
        if width == 128:
            u = (self.word(5) << 16) | self.word(4)
            v = (self.word(1) << 16) | self.word(0)
            return u, v
        raise ValueError(f"GIFT only defines 64- and 128-bit states, got {width}")

    def update(self) -> None:
        """Advance the key state by one round."""
        k0 = self.word(0)
        k1 = self.word(1)
        rotated_high = (_rotate_right_16(k1, 2) << 16) | _rotate_right_16(k0, 12)
        self.value = (rotated_high << 96) | (self.value >> 32)

    def copy(self) -> "GiftKeyState":
        """Return an independent copy of the key state."""
        return GiftKeyState(self.value)


def round_keys(master_key: int, rounds: int, width: int) -> List[Tuple[int, int]]:
    """Return the ``(U, V)`` round keys of the first ``rounds`` rounds."""
    state = GiftKeyState(master_key)
    keys = []
    for _ in range(rounds):
        keys.append(state.round_key(width))
        state.update()
    return keys


#: ``key_xor_state_bits`` results per width — the positions are fixed by
#: the specification, so rebuilding the tuples on every round-key-mask
#: expansion was pure overhead.
_KEY_XOR_STATE_BITS = {
    64: (tuple(4 * i + 1 for i in range(16)),
         tuple(4 * i for i in range(16))),
    128: (tuple(4 * i + 2 for i in range(32)),
          tuple(4 * i + 1 for i in range(32))),
}


def key_xor_state_bits(width: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """State bit positions receiving ``U`` and ``V`` round-key bits.

    GIFT-64 XORs ``V[i]`` into state bit ``4i`` and ``U[i]`` into
    ``4i + 1``; GIFT-128 XORs ``V[i]`` into ``4i + 1`` and ``U[i]`` into
    ``4i + 2``.  Returns ``(u_positions, v_positions)`` where entry ``i``
    is the state bit for round-key bit ``i``.
    """
    try:
        return _KEY_XOR_STATE_BITS[width]
    except KeyError:
        raise ValueError(
            f"GIFT only defines 64- and 128-bit states, got {width}"
        ) from None

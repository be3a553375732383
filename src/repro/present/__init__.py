"""PRESENT cipher — GIFT's ancestor, used as a comparison baseline."""

from .bitsliced import BitslicedPresent
from .cipher import (
    PLAYER,
    PLAYER_INV,
    PRESENT_ROUNDS,
    PRESENT_SBOX,
    PRESENT_SBOX_INV,
    Present,
)
from .vectors import PRESENT80_VECTORS

__all__ = [
    "BitslicedPresent",
    "PLAYER",
    "PLAYER_INV",
    "PRESENT_ROUNDS",
    "PRESENT_SBOX",
    "PRESENT_SBOX_INV",
    "Present",
    "PRESENT80_VECTORS",
]

"""GIFT cipher family: reference and table-based (traced) implementations.

The reference implementations (:class:`Gift64`, :class:`Gift128`) are
bit-level and match the official test vectors.  The traced LUT variants
(:class:`TracedGift64`, :class:`TracedGift128`) reproduce the software
structure of the public implementation the GRINCH paper attacks and emit
the memory-access stream consumed by the cache simulator.
"""

from .bitsliced import BitslicedGift64, BitslicedGift128, BitslicedGiftCipher
from .cipher import Gift64, Gift128, GiftCipher, RoundState, sub_cells
from .constants import constant_mask, round_constant
from .keyschedule import (
    GiftKeyState,
    assemble_master_key_from_round_keys,
    key_xor_state_bits,
    master_key_bits_for_segment,
    round_keys,
)
from .lut import TableLayout, TracedGift64, TracedGift128, TracedGiftCipher
from .permutation import (
    PERM64,
    PERM64_INV,
    PERM128,
    PERM128_INV,
    permute64,
    permute64_inv,
    permute128,
    permute128_inv,
)
from .sbox import (
    GIFT_SBOX,
    GIFT_SBOX_INV,
    SBOX_SIZE,
    branch_number,
    inputs_for_output_bits,
    outputs_with_bit,
    sbox,
    sbox_inv,
)
from .trace import EncryptionTrace, MemoryAccess
from .vectors import GIFT64_VECTORS, GIFT128_VECTORS, TestVector

__all__ = [
    "BitslicedGift64",
    "BitslicedGift128",
    "BitslicedGiftCipher",
    "Gift64",
    "Gift128",
    "GiftCipher",
    "RoundState",
    "sub_cells",
    "constant_mask",
    "round_constant",
    "GiftKeyState",
    "assemble_master_key_from_round_keys",
    "key_xor_state_bits",
    "master_key_bits_for_segment",
    "round_keys",
    "TableLayout",
    "TracedGift64",
    "TracedGift128",
    "TracedGiftCipher",
    "PERM64",
    "PERM64_INV",
    "PERM128",
    "PERM128_INV",
    "permute64",
    "permute64_inv",
    "permute128",
    "permute128_inv",
    "GIFT_SBOX",
    "GIFT_SBOX_INV",
    "SBOX_SIZE",
    "branch_number",
    "inputs_for_output_bits",
    "outputs_with_bit",
    "sbox",
    "sbox_inv",
    "EncryptionTrace",
    "MemoryAccess",
    "GIFT64_VECTORS",
    "GIFT128_VECTORS",
    "TestVector",
]

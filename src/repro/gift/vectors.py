"""Official GIFT test vectors (Banik et al., eprint 2017/622, Appendix A).

Keys, plaintexts and ciphertexts are big-endian integers of the natural
width.  These pin down the exact bit ordering of the implementation; the
GRINCH attack's bookkeeping silently breaks if any of these drift.
"""

from __future__ import annotations

from typing import Tuple

from ..targets.trace import TestVector

GIFT64_VECTORS: Tuple[TestVector, ...] = (
    TestVector(
        key=0x00000000000000000000000000000000,
        plaintext=0x0000000000000000,
        ciphertext=0xF62BC3EF34F775AC,
    ),
    TestVector(
        key=0xFEDCBA9876543210FEDCBA9876543210,
        plaintext=0xFEDCBA9876543210,
        ciphertext=0xC1B71F66160FF587,
    ),
)

GIFT128_VECTORS: Tuple[TestVector, ...] = (
    TestVector(
        key=0x00000000000000000000000000000000,
        plaintext=0x00000000000000000000000000000000,
        ciphertext=0xCD0BD738388AD3F668B15A36CEB6FF92,
    ),
    TestVector(
        key=0xFEDCBA9876543210FEDCBA9876543210,
        plaintext=0xFEDCBA9876543210FEDCBA9876543210,
        ciphertext=0x8422241A6DBF5A9346AF468409EE0152,
    ),
)

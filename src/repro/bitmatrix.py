"""The bit-matrix layout shared by the bitsliced cipher backends.

A batch of ``N`` blocks of a ``width``-bit state is held as one
``(width, N)`` uint8 matrix of 0/1 values: row ``i`` is state bit ``i``
(little-endian, so bit 0 of the integer block is row 0) and column
``n`` is block ``n``.  Under this layout a whole-batch S-box layer is a
handful of row operations on the four bit-rows of every nibble
(``state[b::4]``), a bit permutation is one row gather, and a key
addition is one broadcast XOR of a ``(width,)`` mask row — so the
GIFT and PRESENT backends (:mod:`repro.gift.bitsliced`,
:mod:`repro.present.bitsliced`) share everything here and keep only
their round functions.

This module sits at the ``repro.seeding`` level: both cipher packages
may import it, and it imports nothing from the pipeline.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


def mask_row(mask: int, width: int) -> np.ndarray:
    """One full-state XOR mask as a ``(width,)`` 0/1 uint8 row."""
    raw = np.frombuffer(mask.to_bytes(width // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")


def pack_blocks(blocks: Sequence[int], width: int) -> np.ndarray:
    """Pack integer blocks into the ``(width, N)`` bit-matrix."""
    count = len(blocks)
    if count == 0:
        return np.zeros((width, 0), dtype=np.uint8)
    nbytes = width // 8
    try:
        buf = b"".join(int(block).to_bytes(nbytes, "little")
                       for block in blocks)
    except (OverflowError, TypeError):
        raise ValueError(
            f"every block must be a {width}-bit integer"
        ) from None
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(count, nbytes)
    return np.ascontiguousarray(
        np.unpackbits(raw, axis=1, bitorder="little").T
    )


def unpack_blocks(state: np.ndarray) -> List[int]:
    """Unpack the ``(width, N)`` bit-matrix back into integer blocks."""
    raw = np.packbits(
        np.ascontiguousarray(state.T), axis=1, bitorder="little"
    )
    return [int.from_bytes(row.tobytes(), "little") for row in raw]


def nibble_indices(state: np.ndarray) -> np.ndarray:
    """Every nibble's 4-bit value: a ``(width // 4, N)`` uint8 array
    whose entry ``[s, n]`` is block ``n``'s nibble ``s``."""
    return (state[0::4]
            | (state[1::4] << 1)
            | (state[2::4] << 2)
            | (state[3::4] << 3))


def round_limit(max_rounds: Optional[int], rounds: int) -> int:
    """``max_rounds`` resolved against a cipher's ``rounds`` (``None``
    means all of them); anything outside ``[1, rounds]`` is rejected."""
    limit = rounds if max_rounds is None else max_rounds
    if not 1 <= limit <= rounds:
        raise ValueError(
            f"max_rounds must be in [1, {rounds}], got {max_rounds}"
        )
    return limit


__all__ = [
    "mask_row",
    "nibble_indices",
    "pack_blocks",
    "round_limit",
    "unpack_blocks",
]

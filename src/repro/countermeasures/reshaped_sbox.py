"""Countermeasure 1 (Section IV-C): reshaping the S-box table.

"For the S-Box, the proposed method is to set the cache line to 8 bytes
and reshape the S-Box from 16 rows of 4 bits to 8 rows of 8 bits.  As an
overhead, you have to select the right 4 bits at the output."

Two S-box entries are packed per byte, so the table shrinks to 8 bytes
and — with an 8-byte cache line — occupies a *single* line.  Every
lookup touches that one line regardless of the index: the access-driven
channel carries zero information.  The low index bit (which selects the
nibble within the byte) never reaches the address bus at all.
"""

from __future__ import annotations

from typing import List, Tuple

from ..cache.geometry import CacheGeometry
from ..targets.gift import GIFT_SBOX, TracedGiftCipher
from ..targets.layout import TableLayout
from ..targets.trace import EncryptionTrace, MemoryAccess
from ..staticcheck.equivalence import declare_table_layout
from ..staticcheck.secrets import secret_params

#: The reshaped table: row ``r`` packs entries ``2r`` (low nibble) and
#: ``2r + 1`` (high nibble) into one byte.
RESHAPED_SBOX_ROWS: Tuple[int, ...] = tuple(
    GIFT_SBOX[2 * row] | (GIFT_SBOX[2 * row + 1] << 4)
    for row in range(8)
)

# Layout metadata for the quantitative leakage analyzer: the secret
# domain is still the 16 S-box inputs, but two values pack per byte
# (``index >> 1`` addressing), so the 16-value domain maps onto 8 bytes
# — under an 8-byte line the equivalence enumeration collapses to one
# class (0 bits), which the byte-footprint heuristic cannot establish.
declare_table_layout("RESHAPED_SBOX_ROWS", module=__name__, domain=16,
                     entry_bytes=1, values_per_entry=2)

#: Number of rows (bytes) in the reshaped table.
RESHAPED_ROWS: int = 8

#: Cache geometry the countermeasure prescribes: 8-byte lines, so the
#: reshaped table fits one line (other parameters as the paper default).
RECOMMENDED_GEOMETRY = CacheGeometry(line_words=8)


@secret_params("index")
def reshaped_lookup(index: int) -> int:
    """Perform the protected lookup: row load + nibble select."""
    if not 0 <= index < 16:
        raise ValueError(f"S-box index must be a 4-bit value, got {index}")
    row = RESHAPED_SBOX_ROWS[index >> 1]
    return (row >> 4) & 0xF if index & 1 else row & 0xF


class ReshapedSboxGift64(TracedGiftCipher):
    """GIFT-64 whose SubCells reads the packed 8-row table.

    Functionally identical to the unprotected implementation (the packed
    rows decode to the same S-box); only the *address stream* changes:
    the accessed address is ``sbox_base + (index >> 1)``, and with the
    recommended 8-byte cache line all eight addresses share one line.
    """

    def __init__(self, master_key: int, rounds: int = 28,
                 layout: TableLayout = TableLayout()) -> None:
        super().__init__(master_key, width=64, rounds=rounds, layout=layout)
        # What the fast observation path maps indices to lines through:
        # the packed row each index really loads, not the 16-entry
        # layout's one byte per index.
        self._sbox_address_table = tuple(
            self.sbox_row_address(index) for index in range(16)
        )

    @secret_params("index")
    def sbox_row_address(self, index: int) -> int:
        """Byte address actually loaded for S-box ``index``."""
        if not 0 <= index < 16:
            raise ValueError(f"S-box index must be a 4-bit value, got {index}")
        return self.layout.sbox_base + (index >> 1)

    def table_addresses(self) -> List[int]:
        """Addresses of the 8 packed rows."""
        return [self.layout.sbox_base + row for row in range(RESHAPED_ROWS)]

    @secret_params("state")
    def _sub_cells_traced(self, state: int, round_index: int,
                          trace: EncryptionTrace) -> int:
        result = 0
        for segment in range(self._segments):
            index = (state >> (4 * segment)) & 0xF
            trace.append(
                MemoryAccess(
                    address=self.sbox_row_address(index),
                    round_index=round_index,
                    segment=segment,
                    table="sbox",
                    index=index >> 1,
                )
            )
            result |= reshaped_lookup(index) << (4 * segment)
        return result

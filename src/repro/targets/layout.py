"""Table-layout vocabulary of the target layer.

:class:`TableLayout` (where a victim's lookup tables live in data
memory) is cipher-agnostic: any table-based SPN victim places a
16-entry S-box and a per-segment scatter table somewhere in its binary.
The layering checker bans direct cipher-package imports outside the
cipher packages and ``repro.targets``, so every other layer gets the
layout types from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

#: Entries in a 4-bit S-box — the monitored table of every registered
#: target (GIFT, PRESENT, and GIFT-COFB all substitute nibbles through
#: one 16-entry table).
SBOX_ENTRIES: int = 16

#: Widest scatter table any registered target uses (GIFT-128 has 32
#: segments); :class:`TableLayout` validates against this extent because
#: the layout is width-agnostic.
MAX_SEGMENTS: int = 32


@dataclass(frozen=True)
class TableLayout:
    """Where the victim's lookup tables live in its data memory.

    The defaults model a small statically linked IoT binary: the 16-entry
    S-box packed one byte per entry (the paper's "16 bytes" table) and
    the PermBits scatter table in a separate, non-overlapping region.
    """

    sbox_base: int = 0x1000
    sbox_entry_bytes: int = 1
    perm_base: int = 0x2000
    perm_entry_bytes: int = 8

    def __post_init__(self) -> None:
        if self.sbox_base < 0 or self.perm_base < 0:
            raise ValueError("table base addresses must be non-negative")
        if self.sbox_entry_bytes < 1 or self.perm_entry_bytes < 1:
            raise ValueError("table entry sizes must be positive")
        # The layout does not know the cipher width, so the PermBits
        # extent is checked at its 32-segment (GIFT-128) maximum; both
        # orderings must be rejected or a perm table placed just below
        # the S-box would silently alias PermBits loads onto S-box
        # addresses and corrupt the observed index sets.
        sbox_end = self.sbox_base + SBOX_ENTRIES * self.sbox_entry_bytes
        perm_end = (self.perm_base
                    + SBOX_ENTRIES * MAX_SEGMENTS * self.perm_entry_bytes)
        if self.sbox_base < perm_end and self.perm_base < sbox_end:
            raise ValueError("S-box and PermBits tables overlap")

    def sbox_address(self, index: int) -> int:
        """Byte address of S-box entry ``index``."""
        if not 0 <= index < SBOX_ENTRIES:
            raise ValueError(f"S-box index must be a 4-bit value, got {index}")
        return self.sbox_base + self.sbox_entry_bytes * index

    def sbox_addresses(self) -> List[int]:
        """Addresses of all sixteen S-box entries, in index order."""
        return [self.sbox_address(i) for i in range(SBOX_ENTRIES)]

    def perm_address(self, segment: int, nibble: int, segments: int) -> int:
        """Byte address of the PermBits scatter entry for one segment/nibble."""
        if not 0 <= nibble < SBOX_ENTRIES:
            raise ValueError(f"nibble must be a 4-bit value, got {nibble}")
        if not 0 <= segment < segments:
            raise ValueError(f"segment must be in [0, {segments}), got {segment}")
        return self.perm_base + self.perm_entry_bytes * (segment * 16 + nibble)


__all__ = ["TableLayout", "MAX_SEGMENTS", "SBOX_ENTRIES"]

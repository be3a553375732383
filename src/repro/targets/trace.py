"""Cipher-neutral trace and test-vector records of the target layer.

A cache attack sees *addresses*, not values.  Every table-based victim
(:class:`~repro.targets.lut.TracedLutCipher` and its GIFT and PRESENT
subclasses) therefore reports each table lookup it performs as a
:class:`MemoryAccess`, tagged with enough metadata (round, segment,
table, index) for tests and analysis to reason about what a real probe
could and could not observe.  The attack itself only ever consumes the
``address`` field through the cache simulator — the tags exist so tests
can prove we never leak them into the attack path.

:class:`TestVector` is a plain known-answer triple shared by the cipher
packages' official vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple


@dataclass(frozen=True)
class TestVector:
    """One known-answer test: ``encrypt(key, plaintext) == ciphertext``."""

    key: int
    plaintext: int
    ciphertext: int


@dataclass(frozen=True)
class MemoryAccess:
    """One data-memory load performed by the victim.

    Attributes
    ----------
    address:
        Byte address of the load (table base + scaled index).
    round_index:
        1-based cipher round the load belongs to.
    segment:
        State segment (one 4-bit nibble) whose processing issued the load.
    table:
        Which lookup table was read (``"sbox"`` or ``"perm"``).
    index:
        Table index that was read; ground truth for tests only.
    """

    # ~900 of these are built per traced GIFT-64 block; slots keep the
    # per-record footprint down and skip the per-instance __dict__.
    __slots__ = ("address", "round_index", "segment", "table", "index")

    address: int
    round_index: int
    segment: int
    table: str
    index: int


@dataclass
class EncryptionTrace:
    """All memory accesses of one encryption, with round boundaries.

    ``accesses`` is ordered exactly as the victim issued them.  The cache
    simulator replays a prefix of this list up to the attacker's probe
    moment; :meth:`accesses_through_round` computes that prefix.
    """

    plaintext: int
    ciphertext: int
    accesses: List[MemoryAccess] = field(default_factory=list)

    def append(self, access: MemoryAccess) -> None:
        """Record one more access (used by the traced victim)."""
        self.accesses.append(access)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.accesses)

    def __len__(self) -> int:
        return len(self.accesses)

    @property
    def rounds_traced(self) -> int:
        """Highest round index appearing in the trace (0 when empty)."""
        return max((a.round_index for a in self.accesses), default=0)

    def accesses_through_round(self, last_round: int) -> List[MemoryAccess]:
        """Return accesses of rounds ``1..last_round`` inclusive."""
        if last_round < 0:
            raise ValueError(f"last_round must be non-negative, got {last_round}")
        return [a for a in self.accesses if a.round_index <= last_round]

    def accesses_in_rounds(self, first_round: int, last_round: int
                           ) -> List[MemoryAccess]:
        """Return accesses of rounds ``first_round..last_round`` inclusive."""
        if first_round > last_round:
            raise ValueError(
                f"empty round window [{first_round}, {last_round}]"
            )
        return [
            a for a in self.accesses
            if first_round <= a.round_index <= last_round
        ]

    def sbox_indices(self, round_index: int) -> List[Tuple[int, int]]:
        """Return ``(segment, index)`` of the S-box loads in one round."""
        return [
            (a.segment, a.index)
            for a in self.accesses
            if a.round_index == round_index and a.table == "sbox"
        ]


__all__ = ["EncryptionTrace", "MemoryAccess", "TestVector"]

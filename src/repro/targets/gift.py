"""GIFT-64 and GIFT-128 as :class:`CipherTarget` implementations.

This module is also the sanctioned re-export surface for GIFT symbols:
the layering checker bans ``repro.gift`` imports everywhere outside
``repro.gift``/``repro.targets``, so consumers (engine experiments, the
CLI, countermeasures, perf benchmarks) import the cipher classes from
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from ..gift.bitsliced import (  # noqa: F401  (re-exported)
    BitslicedGift64,
    BitslicedGift128,
    BitslicedGiftCipher,
)
from ..gift.cipher import (  # noqa: F401  (re-exported)
    Gift64,
    Gift128,
    GiftCipher,
    round_key_mask,
    sub_cells,
)
from ..gift.constants import MAX_ROUNDS, constant_mask
from ..gift.keyschedule import (  # noqa: F401  (round_keys re-exported)
    _rotate_right_16,
    key_xor_state_bits,
    round_keys,
)
from ..gift.lut import (  # noqa: F401  (re-exported)
    TracedGift64,
    TracedGift128,
    TracedGiftCipher,
)
from ..gift.permutation import inverse_permutation_for_width
from ..gift.sbox import GIFT_SBOX, GIFT_SBOX_INV  # noqa: F401  (re-exported)
from .layout import TableLayout
from .protocol import CipherTarget, TracedVictim
from .registry import register_target


@dataclass(frozen=True)
class _InverseRoundTables:
    """Byte-sliced tables of one GIFT width's inverse round.

    ``perm_rows[i][b]`` is P⁻¹ of byte value ``b`` sitting in state
    byte ``i``, ``sbox_inv[b]`` is S⁻¹ applied to both nibbles of a
    byte, and ``constant_masks[r - 1]`` is round ``r``'s constant mask.
    """

    perm_rows: Tuple[Tuple[int, ...], ...]
    sbox_inv: Tuple[int, ...]
    constant_masks: Tuple[int, ...]

    @classmethod
    def build(cls, width: int) -> "_InverseRoundTables":
        inverse_perm = inverse_permutation_for_width(width)
        perm_rows = []
        for base in range(0, width, 8):
            row = [0] * 256
            for value in range(1, 256):
                low = value & -value
                row[value] = (row[value ^ low]
                              | 1 << inverse_perm[base + low.bit_length() - 1])
            perm_rows.append(tuple(row))
        sbox_inv = tuple(
            GIFT_SBOX_INV[value & 0xF] | GIFT_SBOX_INV[value >> 4] << 4
            for value in range(256)
        )
        constant_masks = tuple(
            constant_mask(round_index, width)
            for round_index in range(1, MAX_ROUNDS + 1)
        )
        return cls(tuple(perm_rows), sbox_inv, constant_masks)


class GiftTarget(CipherTarget):
    """One GIFT variant as a pluggable cipher target.

    Every structural fact GRINCH needs follows from the state width:

    ================================  ==========  ===========
    property                          GIFT-64     GIFT-128
    ================================  ==========  ===========
    state segments                    16          32
    nibble bit receiving ``V``        0           1
    nibble bit receiving ``U``        1           2
    round-key width                   32 bits     64 bits
    rounds for the full 128-bit key   4           2
    verification round (key known)    5           3
    ================================  ==========  ===========

    The verification-round property comes from the shared key schedule:
    GIFT-64's round-5 key is a rotation of round 1's, and GIFT-128's
    round-3 key is ``U3 = rot(V1)``, ``V3 = U1`` — in both cases fully
    predictable once the first attacked round is recovered.  Round keys
    are ``(U, V)`` half-pairs throughout.
    """

    probe_round_offset = 1  # key enters after round t; monitored in t+1
    first_round_direct = False
    key_bits = 128
    sbox = GIFT_SBOX
    table_names = (
        "repro.gift.sbox.GIFT_SBOX",
        "repro.gift.sbox.GIFT_SBOX_INV",
    )
    crafting_channel = "plaintext"

    def __init__(self, name: str, width: int, rounds: int) -> None:
        u_positions, v_positions = key_xor_state_bits(width)
        self.name = name
        self.width = width
        self.rounds = rounds
        self.key_offsets = (v_positions[0], u_positions[0])
        self.free_offsets = tuple(
            offset for offset in range(4) if offset not in self.key_offsets
        )
        # Rounds 1..full_key_rounds consume disjoint master-key bits; the
        # next round's key is a schedule rotation of round 1's.
        self.full_key_rounds = self.key_bits // self.bits_per_round
        self.verification_round = self.full_key_rounds + 1
        self._inverse_perm = inverse_permutation_for_width(width)
        # Built on the first inversion, so importing the target stays
        # cheap for processes that never craft.
        self._inverse_tables: Optional[_InverseRoundTables] = None

    # -- Algorithm-1 support ------------------------------------------

    def inverse_permutation(self) -> Tuple[int, ...]:
        return self._inverse_perm

    def round_constant_mask(self, round_index: int) -> int:
        return constant_mask(round_index, self.width)

    # -- crafting ------------------------------------------------------

    def invert_rounds(self, state: int,
                      prior_round_keys: Sequence[Tuple[int, int]]) -> int:
        """Step 5's inversion: ``input_r = S⁻¹(P⁻¹(input_{r+1} XOR RK_r
        XOR C_r))`` from the constrained round-``t`` input down to the
        plaintext.

        P⁻¹ and S⁻¹ run one state byte at a time through the lazily
        built :class:`_InverseRoundTables` of this width.
        """
        tables = self._inverse_tables
        if tables is None:
            tables = self._inverse_tables = _InverseRoundTables.build(
                self.width
            )
        width = self.width
        perm_rows = tables.perm_rows
        sbox_inv = tables.sbox_inv
        constant_masks = tables.constant_masks
        for round_index in range(len(prior_round_keys), 0, -1):
            u, v = prior_round_keys[round_index - 1]
            state ^= (round_key_mask(u, v, width)
                      ^ constant_masks[round_index - 1])
            permuted = 0
            for row in perm_rows:
                permuted |= row[state & 0xFF]
                state >>= 8
            state = 0
            for shift in range(0, width, 8):
                state |= sbox_inv[(permuted >> shift) & 0xFF] << shift
        return state

    # -- key-relation algebra -----------------------------------------

    def master_key_bit_positions(self, round_index: int,
                                 segment: int) -> Tuple[int, int]:
        """Master-key bit indices ``(v_bit, u_bit)`` of one target.

        Only defined for the attacked rounds (``1..full_key_rounds``),
        where round keys are fresh master-key material.  GIFT-64 round
        ``r``, segment ``i`` reads bits ``32(r-1) + i`` and
        ``32(r-1) + 16 + i`` (round 1, segment 0: key bits 0 and 16, as
        in Fig. 1 of the paper).
        """
        if not 1 <= round_index <= self.full_key_rounds:
            raise ValueError(
                f"GIFT-{self.width} master-key quarters align with rounds "
                f"1-{self.full_key_rounds}, got round {round_index}"
            )
        if not 0 <= segment < self.segments:
            raise ValueError(
                f"GIFT-{self.width} has {self.segments} segments, "
                f"got {segment}"
            )
        if self.width == 64:
            base = 32 * (round_index - 1)
            return base + segment, base + 16 + segment
        # GIFT-128: RK1 = (U=k5||k4, V=k1||k0); RK2 = (U=k7||k6, V=k3||k2).
        if round_index == 1:
            return segment, 64 + segment
        return 32 + segment, 96 + segment

    def assemble_master_key(self,
                            round_keys: Sequence[Tuple[int, int]]) -> int:
        """Rebuild the 128-bit master key from the attacked round keys."""
        if len(round_keys) != self.full_key_rounds:
            raise ValueError(
                f"GIFT-{self.width} needs {self.full_key_rounds} round "
                f"keys, got {len(round_keys)}"
            )
        half_bits = self.segments
        master = 0
        for round_index, (u, v) in enumerate(round_keys, start=1):
            if not (0 <= u < 1 << half_bits and 0 <= v < 1 << half_bits):
                raise ValueError(
                    f"GIFT-{self.width} round-key halves are "
                    f"{half_bits}-bit values"
                )
            for bit in range(half_bits):
                v_pos, u_pos = self.master_key_bit_positions(round_index, bit)
                master |= ((v >> bit) & 1) << v_pos
                master |= ((u >> bit) & 1) << u_pos
        return master

    def verification_round_key(
            self, round_keys: Sequence[Tuple[int, int]]
    ) -> Tuple[int, int]:
        """The verification round's ``(U, V)``, from the round-1 key.

        GIFT-64: ``RK5 = (U1 >>> 2, V1 >>> 12)`` (16-bit rotations).
        GIFT-128: ``U3 = (v1_hi >>> 2) || (v1_lo >>> 12)``, ``V3 = U1``.
        """
        u1, v1 = round_keys[0]
        if self.width == 64:
            return (_rotate_right_16(u1, 2), _rotate_right_16(v1, 12))
        v1_high = (v1 >> 16) & 0xFFFF
        v1_low = v1 & 0xFFFF
        u3 = (_rotate_right_16(v1_high, 2) << 16) | _rotate_right_16(v1_low, 12)
        return (u3, u1)

    def segment_key_bits(self, round_key: Tuple[int, int],
                         segment: int) -> Tuple[int, int]:
        u, v = round_key
        return ((v >> segment) & 1, (u >> segment) & 1)

    def round_key_from_segment_bits(
            self, bits_by_segment: Sequence[Tuple[int, int]]
    ) -> Tuple[int, int]:
        u = 0
        v = 0
        for segment, (v_bit, u_bit) in enumerate(bits_by_segment):
            v |= v_bit << segment
            u |= u_bit << segment
        return u, v

    # -- victims -------------------------------------------------------

    def make_victim(self, master_key: int,
                    layout: Optional[TableLayout] = None,
                    rounds: Optional[int] = None) -> TracedVictim:
        return TracedGiftCipher(
            master_key, width=self.width,
            rounds=self.rounds if rounds is None else rounds,
            layout=layout if layout is not None else TableLayout(),
        )

    def reference_encrypt(self, master_key: int, plaintext: int,
                          rounds: Optional[int] = None) -> int:
        cipher = GiftCipher(
            master_key, self.width,
            self.rounds if rounds is None else rounds,
        )
        return cipher.encrypt(plaintext)

    def batch_view(self, victim: TracedVictim) -> Optional[Any]:
        """Bitslice any GIFT victim's expanded key schedule.

        Countermeasure subclasses stay batch-equivalent for free (the
        hardened schedule only changes ``compute_round_keys``, the
        reshaped S-box only load addresses); wrapped victims the
        isinstance check cannot see through (recording/replay) fall
        back to the scalar path, which is what keeps recording
        RNG-transparent and replay destructive-safe.
        """
        if not isinstance(victim, (TracedGiftCipher, GiftCipher)):
            return None
        return BitslicedGiftCipher.from_victim(victim)


gift64 = register_target(GiftTarget("gift64", width=64, rounds=28))
gift128 = register_target(GiftTarget("gift128", width=128, rounds=40))

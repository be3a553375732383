"""GIFT-64 and GIFT-128 as :class:`CipherTarget` implementations.

This module is also the sanctioned re-export surface for GIFT symbols:
the layering checker bans ``repro.gift`` imports everywhere outside
``repro.gift``/``repro.targets``, so consumers (engine experiments, the
CLI, countermeasures, perf benchmarks) import the cipher classes from
here.

:class:`GiftAttackProfile` — the width-specific bookkeeping table the
paper's attack needs — lives here because the target layer may not
import ``repro.core``; ``repro.core`` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..gift.bitsliced import (  # noqa: F401  (re-exported)
    BitslicedGift64,
    BitslicedGift128,
    BitslicedGiftCipher,
    numpy_available,
)
from ..gift.cipher import (  # noqa: F401  (re-exported)
    Gift64,
    Gift128,
    GiftCipher,
    round_key_mask,
    sub_cells,
)
from ..gift.constants import constant_mask
from ..gift.keyschedule import round_keys  # noqa: F401  (re-exported)
from ..gift.lut import (  # noqa: F401  (re-exported)
    TracedGift64,
    TracedGift128,
    TracedGiftCipher,
)
from ..gift.permutation import inverse_permutation_for_width, permute
from ..gift.sbox import GIFT_SBOX, GIFT_SBOX_INV  # noqa: F401  (re-exported)
from .layout import TableLayout
from .protocol import CipherTarget, TracedVictim
from .registry import register_target


def _rotate_right_16(word: int, amount: int) -> int:
    amount %= 16
    return ((word >> amount) | (word << (16 - amount))) & 0xFFFF


@dataclass(frozen=True)
class GiftAttackProfile:
    """Structural facts GRINCH needs about one GIFT variant.

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
    predictable once the first attacked round is recovered.
    """

    width: int
    v_offset: int
    u_offset: int
    full_key_rounds: int
    verification_round: int

    @property
    def segments(self) -> int:
        """Number of 4-bit state segments."""
        return self.width // 4

    @property
    def key_offsets(self) -> Tuple[int, int]:
        """Nibble bit offsets carrying ``(V, U)`` key bits."""
        return (self.v_offset, self.u_offset)

    @property
    def free_offsets(self) -> Tuple[int, ...]:
        """Nibble bit offsets not carrying key bits."""
        return tuple(
            offset for offset in range(4)
            if offset not in (self.v_offset, self.u_offset)
        )

    @property
    def bits_per_round(self) -> int:
        """Master-key bits recovered per attacked round."""
        return 2 * self.segments

    # ------------------------------------------------------------------
    # Master-key bookkeeping
    # ------------------------------------------------------------------

    def master_key_bits(self, round_index: int, segment: int
                        ) -> Tuple[int, int]:
        """Master-key bit indices ``(v_bit, u_bit)`` of one target.

        Only defined for the attacked rounds (``1..full_key_rounds``),
        where round keys are fresh master-key material.
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

    def assemble_master_key(self, round_key_list: Sequence[Tuple[int, int]]
                            ) -> int:
        """Rebuild the 128-bit master key from the attacked round keys."""
        if len(round_key_list) != self.full_key_rounds:
            raise ValueError(
                f"GIFT-{self.width} needs {self.full_key_rounds} round "
                f"keys, got {len(round_key_list)}"
            )
        master = 0
        for round_index, (u, v) in enumerate(round_key_list, start=1):
            for bit in range(2 * self.segments // 2):
                v_pos, u_pos = self.master_key_bits(round_index, bit)
                master |= ((v >> bit) & 1) << v_pos
                master |= ((u >> bit) & 1) << u_pos
        return master

    # ------------------------------------------------------------------
    # Verification round
    # ------------------------------------------------------------------

    def verification_key(self, first_round_key: Tuple[int, int]
                         ) -> Tuple[int, int]:
        """The verification round's ``(U, V)``, from the round-1 key.

        GIFT-64: ``RK5 = (U1 >>> 2, V1 >>> 12)`` (16-bit rotations).
        GIFT-128: ``U3 = (v1_hi >>> 2) || (v1_lo >>> 12)``, ``V3 = U1``.
        """
        u1, v1 = first_round_key
        if self.width == 64:
            return (_rotate_right_16(u1, 2), _rotate_right_16(v1, 12))
        v1_high = (v1 >> 16) & 0xFFFF
        v1_low = v1 & 0xFFFF
        u3 = (_rotate_right_16(v1_high, 2) << 16) | _rotate_right_16(v1_low, 12)
        return (u3, u1)


PROFILE_64 = GiftAttackProfile(
    width=64, v_offset=0, u_offset=1,
    full_key_rounds=4, verification_round=5,
)

PROFILE_128 = GiftAttackProfile(
    width=128, v_offset=1, u_offset=2,
    full_key_rounds=2, verification_round=3,
)


def profile_for_width(width: int) -> GiftAttackProfile:
    """Return the attack profile for a GIFT state width."""
    if width == 64:
        return PROFILE_64
    if width == 128:
        return PROFILE_128
    raise ValueError(f"GIFT only defines 64- and 128-bit states, got {width}")


class GiftTarget(CipherTarget):
    """One GIFT variant as a pluggable cipher target.

    Wraps the :class:`GiftAttackProfile` bookkeeping with the crafting,
    victim-construction, and key-schedule methods the generic pipeline
    drives.  Round keys are ``(U, V)`` half-pairs throughout.
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

    def __init__(self, name: str, profile: GiftAttackProfile,
                 rounds: int) -> None:
        self.name = name
        self.profile = profile
        self.width = profile.width
        self.rounds = rounds
        self.full_key_rounds = profile.full_key_rounds
        self.verification_round = profile.verification_round
        self.key_offsets = profile.key_offsets
        self.free_offsets = profile.free_offsets
        self._inverse_perm = inverse_permutation_for_width(profile.width)

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
        plaintext."""
        width = self.width
        for round_index in range(len(prior_round_keys), 0, -1):
            u, v = prior_round_keys[round_index - 1]
            state ^= round_key_mask(u, v, width)
            state ^= constant_mask(round_index, width)
            state = permute(state, self._inverse_perm)
            state = sub_cells(state, width, inverse=True)
        return state

    # -- key-relation algebra -----------------------------------------

    def master_key_bit_positions(self, round_index: int,
                                 segment: int) -> Tuple[int, ...]:
        return self.profile.master_key_bits(round_index, segment)

    def assemble_master_key(self,
                            round_keys: Sequence[Tuple[int, int]]) -> int:
        return self.profile.assemble_master_key(round_keys)

    def verification_round_key(
            self, round_keys: Sequence[Tuple[int, int]]
    ) -> Tuple[int, int]:
        # GIFT's verification key depends only on the round-1 key.
        return self.profile.verification_key(round_keys[0])

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

    def reference_encrypt_batch(self, master_key: int,
                                plaintexts: Sequence[int],
                                rounds: Optional[int] = None) -> List[int]:
        if not numpy_available():
            return super().reference_encrypt_batch(
                master_key, plaintexts, rounds
            )
        cipher = BitslicedGiftCipher.from_master_key(
            master_key, self.width,
            self.rounds if rounds is None else rounds,
        )
        return cipher.encrypt_batch(plaintexts)

    def batch_view(self, victim: TracedVictim) -> Optional[Any]:
        """Bitslice any GIFT victim's expanded key schedule.

        Countermeasure subclasses stay batch-equivalent for free (the
        hardened schedule only changes ``compute_round_keys``, the
        reshaped S-box only load addresses); wrapped victims the
        isinstance check cannot see through (recording/replay) fall
        back to the scalar path, which is what keeps recording
        RNG-transparent and replay destructive-safe.
        """
        if not numpy_available():
            return None
        if not isinstance(victim, (TracedGiftCipher, GiftCipher)):
            return None
        return BitslicedGiftCipher.from_victim(victim)


gift64 = register_target(GiftTarget("gift64", PROFILE_64, rounds=28))
gift128 = register_target(GiftTarget("gift128", PROFILE_128, rounds=40))


def standard_round_keys(master_key: int, rounds: int,
                        width: int) -> List[Tuple[int, int]]:
    """The GIFT key schedule (alias of :func:`repro.gift.keyschedule.round_keys`)."""
    return round_keys(master_key, rounds, width)

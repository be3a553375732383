"""PRESENT-80 as a :class:`CipherTarget` — the protocol's proof port.

PRESENT is GIFT's direct ancestor and differs from it in every way the
protocol abstracts:

* The full 64-bit round key is XORed into the state *before* the S-box
  layer, so the monitored access of a round-``t`` target happens in
  round ``t`` itself (``probe_round_offset = 0``) and carries **four**
  key bits per segment instead of GIFT's two (``key_offsets =
  (0, 1, 2, 3)``, no free bits).
* Round 1's S-box indices are already key-dependent, so a round-1
  target pins the plaintext nibble to ``0xF`` directly
  (``first_round_direct``) instead of tracing through a previous round.
* PRESENT has no state-side round constants (the counter lands in the
  key register), so :meth:`round_constant_mask` is 0.
* Two 64-bit round keys over-cover the 80-bit master key, but the
  overlap runs through the key schedule's S-box: ``K2`` bits 63..60 map
  *nonlinearly* to master bits (position sentinel ``-1``), and
  :meth:`assemble_master_key` inverts that S-box explicitly.

The port is exercised end-to-end by experiment E16
(``present-recovery``); ``docs/targets.md`` walks through it.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..present.bitsliced import BitslicedPresent  # noqa: F401  (re-exported)
from ..present.cipher import (
    PLAYER_INV,
    PRESENT_ROUNDS,
    PRESENT_SBOX,
    PRESENT_SBOX_INV,
    _key_schedule_80,
    _p_layer,
    _sbox_layer,
)
from ..present.lut import TracedPresent
from .layout import TableLayout
from .protocol import CipherTarget, TracedVictim
from .registry import register_target


class PresentTarget(CipherTarget):
    """PRESENT-80 as a pluggable cipher target.

    Round keys are plain 64-bit integers (the full per-round XOR mask).
    ``full_key_rounds = 2`` because ``K1`` contributes master bits
    79..16 and ``K2`` the remaining bits 15..0 (plus redundant overlap);
    the verification round is round 3, whose key follows from the
    schedule once ``K1`` and ``K2`` are hypothesised.
    """

    name = "present80"
    width = 64
    key_bits = 80
    rounds = PRESENT_ROUNDS
    full_key_rounds = 2
    verification_round = 3
    probe_round_offset = 0
    first_round_direct = True
    key_offsets = (0, 1, 2, 3)
    free_offsets = ()
    sbox = PRESENT_SBOX
    table_names = (
        "repro.present.cipher.PRESENT_SBOX",
        "repro.present.cipher.PRESENT_SBOX_INV",
    )
    crafting_channel = "plaintext"

    # -- Algorithm-1 support ------------------------------------------

    def inverse_permutation(self) -> Tuple[int, ...]:
        return PLAYER_INV

    def round_constant_mask(self, round_index: int) -> int:
        # PRESENT's round counter enters the *key register*, never the
        # state, so the monitored index is state XOR key bits only.
        return 0

    # -- crafting ------------------------------------------------------

    def bind_inversion(self, prior_round_keys: Sequence[int]
                       ) -> Callable[[int], int]:
        """Invert a constrained state back to a plaintext, bound to the
        prior round keys.

        For a round-``t`` target with ``t >= 2`` the constrained state
        is the round-``t-1`` *S-layer input* (already key-XORed): its
        S-box outputs scatter through the P-layer into the monitored
        round-``t`` nibble.  For ``t = 1`` (``first_round_direct``) the
        state is the plaintext itself and there is nothing to invert.
        """
        # Last round first: the order the inversion peels them off.
        keys = tuple(reversed(prior_round_keys))
        inner = keys[:-1]
        first = keys[-1] if keys else 0

        def invert(state: int) -> int:
            for key in inner:
                state = _sbox_layer(_p_layer(state ^ key, inverse=True),
                                    inverse=True)
            return state ^ first

        return invert

    # -- key-relation algebra -----------------------------------------

    def master_key_bit_positions(self, round_index: int,
                                 segment: int) -> Tuple[int, ...]:
        """Master-key positions of one segment's four key bits.

        ``K1 = register >> 16``, so ``K1[b]`` is master bit ``b + 16``.
        After one schedule step (rotate left 61, S-box on the top
        nibble, counter XOR below bit 16), ``K2[b]`` is master bit
        ``(b + 35) mod 80`` for ``b <= 59``; ``K2[63:60]`` is
        ``S(master[18:15])`` — nonlinear, reported as ``-1``.
        """
        if not 1 <= round_index <= self.full_key_rounds:
            raise ValueError(
                f"PRESENT-80 master-key coverage uses rounds "
                f"1-{self.full_key_rounds}, got round {round_index}"
            )
        if not 0 <= segment < self.segments:
            raise ValueError(
                f"PRESENT has {self.segments} segments, got {segment}"
            )
        if round_index == 1:
            return tuple(16 + 4 * segment + j for j in range(4))
        if segment == 15:
            return (-1, -1, -1, -1)
        return tuple((4 * segment + j + 35) % 80 for j in range(4))

    def assemble_master_key(self, round_keys: Sequence[int]) -> int:
        """Rebuild the 80-bit master key from ``(K1, K2)``.

        Master bits 79..16 come from ``K1`` directly; bits 14..0 from
        ``K2`` bits 59..45; bit 15 is bit 0 of ``S^-1(K2[63:60])``
        (the schedule S-box ate master bits 18..15).  The redundant
        overlap (``K2``'s low bits repeat ``K1`` material) is not
        cross-checked here — the known-pair verification stage is the
        arbiter of a wrong hypothesis.
        """
        if len(round_keys) != self.full_key_rounds:
            raise ValueError(
                f"PRESENT-80 needs {self.full_key_rounds} round keys, "
                f"got {len(round_keys)}"
            )
        k1, k2 = round_keys
        master = (k1 & ((1 << 64) - 1)) << 16
        master |= (k2 >> 45) & 0x7FFF
        master |= (PRESENT_SBOX_INV[(k2 >> 60) & 0xF] & 1) << 15
        return master

    def verification_round_key(self, round_keys: Sequence[int]) -> int:
        # K3 depends on the K2 hypothesis (segment 15 is ambiguous
        # until verification), so it is recomputed per hypothesis from
        # the assembled master candidate.
        master = self.assemble_master_key(round_keys)
        return _key_schedule_80(master)[2]

    def segment_key_bits(self, round_key: int,
                         segment: int) -> Tuple[int, ...]:
        return tuple(
            (round_key >> (4 * segment + j)) & 1 for j in range(4)
        )

    def round_key_from_segment_bits(
            self, bits_by_segment: Sequence[Tuple[int, ...]]) -> int:
        key = 0
        for segment, bits in enumerate(bits_by_segment):
            for j, bit in enumerate(bits):
                key |= bit << (4 * segment + j)
        return key

    # -- victims -------------------------------------------------------

    def make_victim(self, master_key: int,
                    layout: Optional[TableLayout] = None,
                    rounds: Optional[int] = None) -> TracedVictim:
        return TracedPresent(
            master_key, key_bits=self.key_bits,
            rounds=self.rounds if rounds is None else rounds,
            layout=layout if layout is not None else TableLayout(),
        )

    def reference_encrypt(self, master_key: int, plaintext: int,
                          rounds: Optional[int] = None) -> int:
        """Bit-level reference matching :class:`TracedPresent` exactly,
        including the partial-round post-whitening convention."""
        limit = self.rounds if rounds is None else rounds
        keys: List[int] = _key_schedule_80(master_key)
        state = plaintext
        for round_index in range(limit):
            state ^= keys[round_index]
            state = _p_layer(_sbox_layer(state))
        return state ^ keys[limit]

    def batch_view(self, victim: TracedVictim) -> Optional[Any]:
        """Bitslice a scalar PRESENT victim's key schedule for E19
        (``None`` for wrapped recording/replay victims, as on GIFT)."""
        if not isinstance(victim, TracedPresent):
            return None
        return BitslicedPresent.from_victim(victim)


present80 = register_target(PresentTarget())

"""Trace-driven GRINCH variant.

Section III-D of the paper suggests that when cache probing is not
possible, "the attacker can still try other approaches", citing the
trace-driven attack of Acıiçmez & Koç: power analysis "may clearly
reveal when cache misses and hits happen".  This module mounts GRINCH
through exactly that channel — the victim's own hit/miss *sequence* —
with no cache probing at all.

The key structural observation is that GIFT's round 1 is key-free, so
its sixteen S-box accesses load *attacker-known* lines (the plaintext
nibbles themselves).  Round 1 therefore acts as a self-priming phase:

* craft plaintexts pinning the round-2 target index as usual
  (Algorithms 1 & 2);
* watch the hit/miss bit of the target's round-2 access in the trace;
* a **miss** proves the target's line was not among the lines round 1
  touched (nor any earlier round-2 access) — so every line round 1 is
  known to have touched can be eliminated.

The pinned line can never be eliminated (whenever round 1 covers it,
the target access *hits*), so the intersection argument of the
access-driven attack carries over, with round 1's known coverage taking
the role of the probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from ..cache.geometry import CacheGeometry
from ..channel import ObservationChannel
from ..core.config import AttackConfig
from ..core.crafting import PlaintextCrafter
from ..core.errors import BudgetExceeded
from ..core.recover import KeyBitPair, key_pairs_from_line
from ..core.target_bits import set_target_bits
from ..targets.gift import TracedGiftCipher
from ..targets.registry import resolve_target_for
from ..seeding import derive_rng


@dataclass(frozen=True)
class TraceSegmentRecovery:
    """Outcome of one trace-driven segment attack."""

    segment: int
    line: int
    key_pairs: Tuple[KeyBitPair, ...]
    encryptions: int
    misses_observed: int


class TraceDrivenAttack:
    """GRINCH through the victim's hit/miss sequence (round-1 attack).

    Recovers the round-1 key bits only: deeper rounds would need the
    same crafting plus this channel, but the round-1 stage is where the
    variant differs; the remaining rounds proceed as in
    :class:`repro.core.GrinchAttack`.
    """

    def __init__(self, victim: TracedGiftCipher,
                 geometry: Optional[CacheGeometry] = None,
                 seed: Optional[int] = None,
                 max_encryptions_per_segment: int = 50_000) -> None:
        self.victim = victim
        self.geometry = geometry if geometry is not None else CacheGeometry()
        self.target = resolve_target_for(victim)
        # Same L4 observer API as the access-driven attack; this
        # variant reads the hit_miss() signal instead of observe().
        self.channel = ObservationChannel(
            victim,
            AttackConfig(geometry=self.geometry, layout=victim.layout,
                         seed=seed),
            rng_scope="trace-driven",
        )
        self.monitor = self.channel.monitor
        self.rng = derive_rng("trace-driven-crafting", seed)
        self.max_encryptions_per_segment = max_encryptions_per_segment
        self.total_encryptions = 0

    def round1_lines(self, plaintext: int) -> FrozenSet[int]:
        """Lines the key-free first round is known to touch."""
        return frozenset(
            self.monitor.line_for_index(
                (plaintext >> (4 * segment)) & 0xF
            )
            for segment in range(self.target.segments)
        )

    def recover_segment(self, segment: int) -> TraceSegmentRecovery:
        """Recover one segment's round-1 key-bit pair."""
        spec = set_target_bits(1, segment, target=self.target)
        crafter = PlaintextCrafter(spec, [], self.rng)
        candidates = set(self.monitor.universe)
        target_position = self.target.segments + segment
        misses = 0

        for used in range(1, self.max_encryptions_per_segment + 1):
            plaintext = crafter.craft()
            observation = self.channel.window(
                plaintext, first_round=1, last_round=2,
            )
            self.total_encryptions += 1
            if observation.hit_miss[target_position]:
                continue  # hits carry no eliminating information
            misses += 1
            candidates -= self.round1_lines(plaintext)
            if len(candidates) == 1:
                line = next(iter(candidates))
                return TraceSegmentRecovery(
                    segment=segment,
                    line=line,
                    key_pairs=key_pairs_from_line(spec, self.monitor, line),
                    encryptions=used,
                    misses_observed=misses,
                )
            if not candidates:
                raise RuntimeError(
                    "trace-driven elimination removed every line — "
                    "the channel model is inconsistent"
                )
        raise BudgetExceeded(
            f"trace-driven attack on segment {segment} did not converge "
            f"within {self.max_encryptions_per_segment} encryptions",
            encryptions=self.total_encryptions,
        )

    def recover_first_round_key(self) -> Tuple[int, int]:
        """Recover the full round-1 ``(U, V)`` (needs 1-entry lines)."""
        u = 0
        v = 0
        for segment in range(self.target.segments):
            recovery = self.recover_segment(segment)
            if len(recovery.key_pairs) != 1:
                raise RuntimeError(
                    f"segment {segment} left {len(recovery.key_pairs)} "
                    f"candidates; wide-line ambiguity needs the "
                    f"access-driven multi-round machinery"
                )
            v_bit, u_bit = recovery.key_pairs[0]
            v |= v_bit << segment
            u |= u_bit << segment
        return u, v

"""Result records produced by the GRINCH attack stages."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..targets.protocol import CipherTarget
from .recover import KeyBitPair


@dataclass
class SegmentOutcome:
    """Outcome of attacking one (round, segment) target.

    ``resolved_hypothesis`` records which previous-round key-bit
    assignment survived the consistency test (empty for round 1 or when
    nothing was ambiguous).

    ``observations`` counts the probe windows the segment consumed over
    every hypothesis it tried.  ``recovery`` names the decision core
    (``"strict"`` or ``"voting"``).  ``confidence`` is the lowest
    acceptance confidence of the surviving hypotheses, and ``retries``
    the most re-crafts one of them needed; a strict run is exact and
    never re-crafts, so it reports 1.0 and 0.
    """

    round_index: int
    segment: int
    encryptions: int
    hypotheses_tried: int
    line: int
    key_pairs: Tuple[KeyBitPair, ...]
    resolved_hypothesis: Dict[int, KeyBitPair] = field(default_factory=dict)
    confidence: float = 1.0
    observations: int = 0
    retries: int = 0
    recovery: str = "strict"

    @property
    def ambiguous(self) -> bool:
        """More than one key-bit pair remains for this segment."""
        return len(self.key_pairs) > 1


@dataclass
class RoundKeyEstimate:
    """Attacker's knowledge of one round key: per-segment candidates.

    ``pair_candidates[s]`` holds the surviving key-bit tuples for
    segment ``s`` (``(v, u)`` pairs for GIFT, 4-bit tuples for
    PRESENT), in the target's ``key_offsets`` order.  With 1-word cache
    lines every tuple is a singleton; wider lines leave several
    candidates until a later stage resolves them (Section III-D).

    ``target`` selects the round-key representation for
    :meth:`guess_round_key`; ``None`` keeps the historical GIFT
    ``(U, V)`` packing.
    """

    round_index: int
    pair_candidates: List[Tuple[KeyBitPair, ...]]
    target: Optional[CipherTarget] = field(default=None, compare=False,
                                           repr=False)

    def __post_init__(self) -> None:
        if len(self.pair_candidates) not in (16, 32):
            raise ValueError(
                f"round keys cover 16 (64-bit state) or 32 (128-bit "
                f"state) segments, got {len(self.pair_candidates)}"
            )
        for segment, candidates in enumerate(self.pair_candidates):
            if not candidates:
                raise ValueError(f"segment {segment} has no candidates")

    @property
    def segments(self) -> int:
        """Number of state segments this round key covers."""
        return len(self.pair_candidates)

    @property
    def resolved(self) -> bool:
        """Every segment is down to a single candidate pair."""
        return all(len(c) == 1 for c in self.pair_candidates)

    @property
    def ambiguity(self) -> int:
        """Number of joint candidate assignments still alive."""
        product = 1
        for candidates in self.pair_candidates:
            product *= len(candidates)
        return product

    def resolve_segment(self, segment: int, pair: KeyBitPair) -> None:
        """Pin one segment to a single candidate (consistency result)."""
        self.narrow_segment(segment, (pair,))

    def narrow_segment(self, segment: int,
                       pairs: Tuple[KeyBitPair, ...]) -> None:
        """Shrink one segment's candidates to a surviving subset."""
        if not pairs:
            raise ValueError(f"cannot narrow segment {segment} to nothing")
        current = self.pair_candidates[segment]
        missing = [pair for pair in pairs if pair not in current]
        if missing:
            raise ValueError(
                f"pairs {missing} are not among segment {segment}'s "
                f"candidates {current}"
            )
        self.pair_candidates[segment] = tuple(
            pair for pair in current if pair in pairs
        )

    def as_round_key(self) -> Any:
        """Return the resolved round key (``(U, V)`` for GIFT).

        Only valid when :attr:`resolved`.
        """
        if not self.resolved:
            raise RuntimeError(
                f"round-{self.round_index} estimate still has "
                f"{self.ambiguity} joint candidates"
            )
        return self.guess_round_key({})

    def guess_round_key(self, overrides: Dict[int, KeyBitPair]) -> Any:
        """Assemble a concrete round-key guess.

        Unresolved segments default to their first candidate unless
        ``overrides`` pins them; errors in segments outside a target's
        source cone are harmless (they only perturb already-random
        plaintext segments), which is what makes this default sound.
        """
        bits = [
            overrides.get(segment, self.pair_candidates[segment][0])
            for segment in range(self.segments)
        ]
        if self.target is not None:
            return self.target.round_key_from_segment_bits(bits)
        u = 0
        v = 0
        for segment, (v_bit, u_bit) in enumerate(bits):
            u |= u_bit << segment
            v |= v_bit << segment
        return u, v


@dataclass
class RoundAttackOutcome:
    """Aggregated outcome of one full round's 16 segment attacks."""

    round_index: int
    segments: List[SegmentOutcome]
    estimate: RoundKeyEstimate

    @property
    def encryptions(self) -> int:
        """Total victim encryptions spent on this round."""
        return sum(s.encryptions for s in self.segments)

    @property
    def min_confidence(self) -> float:
        """Weakest segment acceptance confidence in this round."""
        return min((s.confidence for s in self.segments), default=1.0)


@dataclass
class AttackResult:
    """Final result of a full GRINCH key recovery."""

    master_key: int
    total_encryptions: int
    rounds: List[RoundAttackOutcome]
    verified: bool
    verification_encryptions: int = 0

    @property
    def encryptions_by_round(self) -> Dict[int, int]:
        """Victim encryptions per attacked round."""
        return {r.round_index: r.encryptions for r in self.rounds}

    @property
    def min_confidence(self) -> float:
        """Weakest segment acceptance confidence across the attack."""
        return min((r.min_confidence for r in self.rounds), default=1.0)

    @property
    def mean_confidence(self) -> float:
        """Mean segment acceptance confidence across the attack."""
        confidences = [s.confidence for r in self.rounds
                       for s in r.segments]
        if not confidences:
            return 1.0
        return sum(confidences) / len(confidences)

    @property
    def total_retries(self) -> int:
        """Total voting re-crafts across all segments."""
        return sum(s.retries for r in self.rounds for s in r.segments)


@dataclass
class FirstRoundResult:
    """Result of the single-round experiments (Fig. 3 / Table I)."""

    outcome: RoundAttackOutcome
    encryptions: int
    recovered_bits: int
    dropped_out: bool = False
    dropout_reason: Optional[str] = None

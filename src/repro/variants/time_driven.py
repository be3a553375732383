"""Time-driven GRINCH variant (Bernstein-style correlation).

The coarsest channel in the paper's taxonomy: the attacker only sees
*how long* each encryption took.  Misses cost more than hits, so the
window latency is an affine function of the number of distinct cache
lines touched — and GIFT's key-free first round again turns the victim
into its own probe:

* craft plaintexts pinning the round-2 target index (line ``L*``);
* for each candidate line ``c``, split the samples by whether round 1
  (whose lines the attacker knows) covered ``c``;
* when ``c == L*`` and round 1 did *not* cover it, the target's round-2
  access almost surely adds a fresh miss; any other line is touched by
  round 2 only with probability ``1 - ((n-1)/n)^segments < 1``.

So the conditional mean-miss gap
``E[misses | c uncovered] - E[misses | c covered]`` is maximal at the
pinned line.  This needs orders of magnitude more samples than the
access- or trace-driven variants (the signal is a fraction of one miss
against the full window's variance) — which is the quantitative content
of the taxonomy: less observation, more encryptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cache.geometry import CacheGeometry
from ..channel import ObservationChannel
from ..channel.observer import MemoryLatencies
from ..core.config import AttackConfig
from ..core.crafting import PlaintextCrafter
from ..core.recover import KeyBitPair, key_pairs_from_line
from ..core.target_bits import set_target_bits
from ..targets.gift import TracedGiftCipher
from ..targets.registry import resolve_target_for
from ..seeding import derive_rng


@dataclass(frozen=True)
class CandidateScore:
    """Conditional-mean statistics for one candidate line."""

    line: int
    mean_misses_uncovered: float
    mean_misses_covered: float
    samples_uncovered: int
    samples_covered: int

    @property
    def gap(self) -> float:
        """The decision statistic; maximal at the pinned line."""
        return self.mean_misses_uncovered - self.mean_misses_covered


@dataclass(frozen=True)
class TimingSegmentRecovery:
    """Outcome of one time-driven segment attack."""

    segment: int
    line: int
    key_pairs: Tuple[KeyBitPair, ...]
    encryptions: int
    scores: Tuple[CandidateScore, ...]

    @property
    def margin(self) -> float:
        """Gap between the best and second-best candidate scores."""
        gaps = sorted((s.gap for s in self.scores), reverse=True)
        return gaps[0] - gaps[1] if len(gaps) > 1 else float("inf")


class TimeDrivenAttack:
    """GRINCH through total-latency measurements only."""

    def __init__(self, victim: TracedGiftCipher,
                 geometry: Optional[CacheGeometry] = None,
                 latencies: MemoryLatencies = MemoryLatencies(),
                 seed: Optional[int] = None) -> None:
        self.victim = victim
        self.geometry = geometry if geometry is not None else CacheGeometry()
        self.latencies = latencies
        self.target = resolve_target_for(victim)
        # The variant consumes the same L4 observer API as the
        # access-driven attack — only the signal differs (the window's
        # latency instead of observe()).
        self.channel = ObservationChannel(
            victim,
            AttackConfig(geometry=self.geometry, seed=seed),
            rng_scope="time-driven",
        )
        self.monitor = self.channel.monitor
        # Crafting stream, scope-derived like every RNG in the tree
        # (a bare random.Random(seed) would not be reproducible for
        # seed=None and would correlate with other consumers).
        self.rng = derive_rng("time-driven-crafting", seed)
        self.total_encryptions = 0
        if self.latencies.l1_miss_cycles <= self.latencies.l1_hit_cycles:
            raise ValueError(
                "time-driven attacks need misses to cost more than hits"
            )

    def _misses_from_latency(self, latency_cycles: int,
                             accesses: int) -> float:
        """Invert the affine latency model back to a miss count.

        The attacker knows the platform's hit/miss costs (they are
        microarchitectural constants), so the window's total latency
        maps exactly to the number of misses.
        """
        hit = self.latencies.l1_hit_cycles
        miss = self.latencies.l1_miss_cycles
        return (latency_cycles - accesses * hit) / (miss - hit)

    def recover_segment(self, segment: int,
                        samples: int = 3_000) -> TimingSegmentRecovery:
        """Recover one segment's round-1 key-bit pair from latencies."""
        if samples < 2:
            raise ValueError(f"need at least 2 samples, got {samples}")
        spec = set_target_bits(1, segment, target=self.target)
        crafter = PlaintextCrafter(spec, [], self.rng)
        lines = list(self.monitor.lines)
        sums: Dict[int, List[float]] = {
            line: [0.0, 0.0] for line in lines
        }  # [uncovered_sum, covered_sum]
        counts: Dict[int, List[int]] = {line: [0, 0] for line in lines}

        for _ in range(samples):
            plaintext = crafter.craft()
            observation = self.channel.window(
                plaintext, first_round=1, last_round=2,
                latencies=self.latencies,
            )
            self.total_encryptions += 1
            misses = self._misses_from_latency(
                observation.latency_cycles, observation.accesses
            )
            covered = {
                self.monitor.line_for_index(
                    (plaintext >> (4 * s)) & 0xF
                )
                for s in range(self.target.segments)
            }
            for line in lines:
                bucket = 1 if line in covered else 0
                sums[line][bucket] += misses
                counts[line][bucket] += 1

        scores = []
        for line in lines:
            uncovered_n, covered_n = counts[line][0], counts[line][1]
            if uncovered_n == 0 or covered_n == 0:
                continue  # cannot score this candidate from the samples
            scores.append(
                CandidateScore(
                    line=line,
                    mean_misses_uncovered=sums[line][0] / uncovered_n,
                    mean_misses_covered=sums[line][1] / covered_n,
                    samples_uncovered=uncovered_n,
                    samples_covered=covered_n,
                )
            )
        if not scores:
            raise RuntimeError(
                "no candidate line could be scored; increase samples"
            )
        best = max(scores, key=lambda s: s.gap)
        return TimingSegmentRecovery(
            segment=segment,
            line=best.line,
            key_pairs=key_pairs_from_line(spec, self.monitor, best.line),
            encryptions=samples,
            scores=tuple(sorted(scores, key=lambda s: -s.gap)),
        )

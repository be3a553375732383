"""L3 — channel degradations: noise, jitter, and loss.

The paper attributes extra attack effort to "the amount of noise (e.g.,
multiple processes disputing the processor)" (Section IV-B1).  In an
access-driven attack, a concurrent process can only *add* lines to the
cache between the victim's rounds and the probe — it never removes the
target's footprint — so noise slows candidate elimination without
corrupting it.  :class:`NoiseModel` injects such spurious accesses.

Real channels are lossier than that.  The paper's own platform study
(Table II) shows the probe landing anywhere in rounds 2–7 depending on
clock and SoC, coarse timers and eviction-based probes miss genuine
accesses outright, and Flush+Flush-style probes have an unreliable
hit/miss signal per line.  :class:`LossyChannel` models those *false
negatives* — observations where a line the victim really touched is
absent — which break the monotone-intersection soundness assumption and
motivate the voting recovery of :mod:`repro.core.voting`.

The observer applies one :class:`LossyChannel` — ``AttackConfig.loss``
— per window: its :class:`ProbeJitter` moves the probe before the
victim runs, and :meth:`LossyChannel.drop_lines` removes evicted and
misread lines from the raw readout afterwards.
:func:`jitter_from_platform` turns a measured SoC probe landing
(Table II) into the jitter to pass as ``LossyChannel(jitter=...)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, FrozenSet, List, Sequence, Tuple


@dataclass(frozen=True)
class NoiseModel:
    """Spurious accesses landing in the monitored region per probe window.

    Parameters
    ----------
    touch_probability:
        Chance that a noisy co-running process executes at all during one
        encryption's probe window.
    monitored_touches:
        How many loads that process issues into the monitored table range
        when it runs (addresses drawn uniformly over the table).
    """

    touch_probability: float = 0.0
    monitored_touches: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.touch_probability <= 1.0:
            raise ValueError(
                f"touch_probability must be in [0, 1], got {self.touch_probability}"
            )
        if self.monitored_touches < 0:
            raise ValueError(
                f"monitored_touches must be non-negative, "
                f"got {self.monitored_touches}"
            )

    @property
    def is_silent(self) -> bool:
        """True when the model can never produce an access."""
        return self.touch_probability == 0.0 or self.monitored_touches == 0

    def sample(self, monitored_addresses: Sequence[int],
               rng: random.Random) -> List[int]:
        """Addresses the noisy process touches during one probe window."""
        if self.is_silent or not monitored_addresses:
            return []
        if rng.random() >= self.touch_probability:
            return []
        return [
            rng.choice(monitored_addresses)
            for _ in range(self.monitored_touches)
        ]


#: Convenience instance: a quiet system (the paper's RTL "clean data").
NO_NOISE = NoiseModel()


@dataclass(frozen=True)
class ProbeJitter:
    """Distribution of the probe's landing round around its target.

    Table II shows the probe does not land where the attacker aims it:
    depending on clock frequency and platform it observes the state
    after anywhere from round 2 to round 7.  ``offsets[i]`` shifts the
    last visible round by that many rounds with probability
    ``weights[i]``; a negative draw can pull the probe *before* the
    target access, losing the entire observation.
    """

    offsets: Tuple[int, ...] = (0,)
    weights: Tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if len(self.offsets) != len(self.weights) or not self.offsets:
            raise ValueError(
                "jitter needs matching, non-empty offsets and weights"
            )
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("jitter weights must be non-negative and "
                             "sum to a positive total")

    @property
    def is_still(self) -> bool:
        """True when the probe always lands exactly where aimed."""
        return all(o == 0 for o in self.offsets)

    def sample(self, rng: random.Random) -> int:
        """Draw one probe-round offset."""
        if self.is_still:
            return 0
        return rng.choices(self.offsets, weights=self.weights, k=1)[0]

    def target_visibility(self, probing_round: int) -> float:
        """Probability the jittered probe still covers the target round.

        The target access happens in round ``t + 1``; a draw ``d`` moves
        the last visible round to ``t + probing_round + d``, so the
        target stays visible iff ``d >= 1 - probing_round``.
        """
        total = sum(self.weights)
        visible = sum(
            w for o, w in zip(self.offsets, self.weights)
            if o >= 1 - probing_round
        )
        return visible / total


#: Convenience instance: a perfectly timed probe.
NO_JITTER = ProbeJitter()


@dataclass(frozen=True)
class LossyChannel:
    """False-negative model of the attacker's observation channel.

    Parameters
    ----------
    miss_probability:
        Chance that the probe's per-line hit/miss signal reads a
        genuinely present line as absent (Flush+Flush-style unreliable
        signal, coarse timers).  Applied independently per observed
        line per probe window; must be below 1.
    eviction_rate:
        Chance per probe window that a co-running process evicts one
        uniformly chosen monitored line before the probe runs; if that
        line was touched, its footprint is gone.
    jitter:
        Probe-round jitter (see :class:`ProbeJitter`).  A draw that
        pulls the probe before the target round loses every visible
        access of the window at once.
    """

    miss_probability: float = 0.0
    eviction_rate: float = 0.0
    jitter: ProbeJitter = field(default_factory=ProbeJitter)

    def __post_init__(self) -> None:
        # A certain miss would hide every genuine access, so no
        # observation could ever show the target.
        if not 0.0 <= self.miss_probability < 1.0:
            raise ValueError(f"miss_probability must be in [0, 1), "
                             f"got {self.miss_probability}")
        if not 0.0 <= self.eviction_rate <= 1.0:
            raise ValueError(f"eviction_rate must be in [0, 1], "
                             f"got {self.eviction_rate}")

    @property
    def is_lossless(self) -> bool:
        """True when every genuine access is guaranteed to be observed."""
        return (self.miss_probability == 0.0
                and self.eviction_rate == 0.0
                and self.jitter.is_still)

    def drop_lines(self, observed: FrozenSet[int],
                   monitored_lines: Sequence[int],
                   rng: random.Random) -> FrozenSet[int]:
        """Apply eviction and per-line signal misses to one observation.

        Jitter is *not* applied here — it changes which rounds are
        visible and therefore must shift the window before the victim
        runs (see :class:`~repro.channel.observer.ObservationChannel`).
        """
        if not observed:
            return observed
        surviving = set(observed)
        if self.eviction_rate > 0.0 and monitored_lines:
            if rng.random() < self.eviction_rate:
                surviving.discard(rng.choice(list(monitored_lines)))
        if self.miss_probability > 0.0:
            surviving = {
                line for line in surviving
                if rng.random() >= self.miss_probability
            }
        return frozenset(surviving)

    def batch_draws_per_window(self, monitored_lines: int) -> int:
        """Uniform draws :meth:`drop_lines_batch` consumes per window.

        Fixed per window regardless of content: one eviction-occurrence
        draw, one eviction-choice draw, and one miss draw per monitored
        line — the invariant that makes the batch stream independent of
        batch boundaries (see :meth:`drop_lines_batch`).
        """
        return 2 + monitored_lines

    def drop_lines_batch(self, observations: Sequence[FrozenSet[int]],
                         monitored_lines: Sequence[int],
                         generator: Any) -> List[FrozenSet[int]]:
        """Vectorized :meth:`drop_lines` over a whole window batch.

        ``generator`` is a dedicated ``numpy.random.Generator`` stream
        (never the scalar loss ``random.Random`` — scalar runs must
        keep their exact pre-batch draw sequence).  All randomness for
        the batch is drawn as ONE C-order ``(count, draws_per_window)``
        matrix, so row ``k`` is always window ``k``'s draws: splitting
        the same window sequence into different batch sizes consumes
        the stream identically and reproduces identical degradations.

        Per window the draw layout is ``[eviction-occurs,
        eviction-choice, miss(line_0), ..., miss(line_L-1)]`` with
        lines in ``monitored_lines`` order; the surviving-line
        semantics match :meth:`drop_lines` draw-for-distribution
        (eviction with chance ``eviction_rate`` of one uniformly
        chosen monitored line, then an independent per-line signal
        miss).
        """
        lines = list(monitored_lines)
        index_of = {line: column for column, line in enumerate(lines)}
        draws = generator.random(
            (len(observations), self.batch_draws_per_window(len(lines)))
        )
        degraded: List[FrozenSet[int]] = []
        for row, observed in zip(draws, observations):
            surviving = set(observed)
            if surviving:
                if (self.eviction_rate > 0.0 and lines
                        and row[0] < self.eviction_rate):
                    chosen = min(int(row[1] * len(lines)), len(lines) - 1)
                    surviving.discard(lines[chosen])
                if self.miss_probability > 0.0:
                    surviving = {
                        line for line in surviving
                        if line not in index_of
                        or row[2 + index_of[line]] >= self.miss_probability
                    }
            degraded.append(frozenset(surviving))
        return degraded

    def expected_target_presence(self, monitored_lines: int,
                                 probing_round: int) -> float:
        """Per-observation probability that the constant target line
        survives the channel.

        The target access is in the window unless jitter pulls the
        probe too early; it then survives the co-runner eviction (which
        picks it with chance ``eviction_rate / monitored_lines``) and
        the per-line signal miss.  This is the presence rate the voting
        recovery calibrates its statistics against.
        """
        if monitored_lines < 1:
            raise ValueError("monitored_lines must be positive")
        visible = self.jitter.target_visibility(probing_round)
        evicted = self.eviction_rate / monitored_lines
        return visible * (1.0 - evicted) * (1.0 - self.miss_probability)


#: Convenience instance: the seed reproduction's implicit assumption.
LOSSLESS = LossyChannel()


def jitter_from_platform(probed_round: int, aimed_round: int) -> ProbeJitter:
    """Jitter pinned to where a SoC platform actually lands its probe.

    Table II's platform study reports, per SoC and clock domain, the
    round whose state the probe ends up observing
    (:attr:`repro.soc.platform.ProbeReport.probed_round`-style
    measurements).  This helper turns that measurement into a
    deterministic offset of ``probed_round - aimed_round``; pass it as
    ``LossyChannel(jitter=...)`` to combine the platform's timing with
    the channel's other losses.
    """
    return ProbeJitter(offsets=(probed_round - aimed_round,),
                       weights=(1.0,))

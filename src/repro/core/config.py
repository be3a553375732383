"""Attack configuration.

One :class:`AttackConfig` captures everything the GRINCH experiments
sweep: cache geometry (Table I), the probing round and the mid-run flush
(Fig. 3), the probing primitive (Section III-C, step 2), and the
simulation budgets that realise the paper's ">1M encryptions" drop-out
rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cache.geometry import CacheGeometry
from ..channel.degradation import LOSSLESS, NO_NOISE, LossyChannel, NoiseModel
from ..channel.primitive import PRIMITIVE_NAMES


@dataclass(frozen=True)
class AttackConfig:
    """Parameters of one GRINCH attack run.

    The config is the only description of the observation channel:
    :class:`~repro.channel.ObservationChannel` builds its primitive and
    its losses from it, and the attack asks that channel whether it can
    lose the target.  The victim's table placement is the victim's own
    (``victim.layout``).

    Attributes
    ----------
    geometry:
        Shared-L1 shape; ``geometry.line_words`` is Table I's sweep axis.
    probing_round:
        How many rounds of victim activity accumulate in the cache before
        the attacker can probe (Fig. 3's x-axis).  Probing round ``r``
        while attacking round ``t`` means the observation happens after
        round ``t + r`` completes.
    use_flush:
        Whether the attacker flushes the monitored lines right after
        round ``t`` (the paper's "Grinch with Flush" series).  Without
        it, rounds ``1..t`` contribute "dirty" accesses.
    probe_strategy:
        ``"flush_reload"`` (paper's choice), ``"prime_probe"``, or
        ``"flush_flush"`` (Gruss et al.'s stealthy flush-latency
        channel; see ``flush_flush_miss_probability``).
    flush_flush_miss_probability:
        Per-readout false-negative rate of the Flush+Flush signal (the
        flush-latency margin is small, so a present line is sometimes
        read as absent; scaled per cache set — see
        :class:`~repro.channel.primitive.FlushFlush`).  Ignored by the
        other primitives.  A positive value makes the attack vote
        (see :attr:`~repro.channel.ObservationChannel.is_lossless`),
        exactly like a lossy channel.
    max_encryptions_per_segment:
        Per-hypothesis convergence budget.  A strict run that exhausts
        it raises :class:`~repro.core.errors.BudgetExceeded`; a voting
        run gives the hypothesis up as low-confidence and tries the
        next one.
    max_total_encryptions:
        Optional whole-attack budget (Table I's 1M drop-out).
    seed:
        Seed for the attacker's RNG (plaintext crafting choices).
    noise:
        Co-running process noise injected into each probe window
        (false positives only; the channel stays sound).
    loss:
        False-negative channel model (per-line signal misses, co-runner
        eviction, probe-round jitter) — see
        :class:`~repro.channel.degradation.LossyChannel`.  The default is the
        lossless channel the strict intersection assumes.
    voting_confidence:
        Confidence the voting recovery must reach before accepting a
        segment's line.  The default is deliberately strict: acceptance
        is sequential (the voter stops the first time the posterior
        crosses the bar), and a full GIFT-64 recovery makes 64 segment
        decisions, so the per-decision error must stay well below
        ``1 / segments`` for the end-to-end success rate to hold.
    voting_min_observations:
        Minimum probe windows before voting may decide.  Calibrated so
        a hot background line cannot fake the target on a small-sample
        fluke: at fewer than ~16 windows a background line running hot
        while the true line runs cold can clear both the posterior and
        the separation guard, and those early wrong accepts are exactly
        the ones that poison later rounds.
    voting_stall_window:
        Re-craft the segment's plaintext stream after this many
        consecutive observations without a confidence improvement.
        Vote counts are kept across re-crafts — the target line is
        fixed by the hypothesis, not the crafter's randomness.  After
        :data:`~repro.core.attack.MAX_SEGMENT_RETRIES` re-crafts the
        hypothesis is given up as low-confidence.
    use_fast_path:
        Allow the accelerated observation path when it is provably
        equivalent to the full cache simulation: a line-granular
        primitive (Flush+Reload, Flush+Flush) on a single-level LRU
        transport; automatically ignored otherwise (see
        :attr:`~repro.channel.ObservationChannel.fast_path_active`).
    batch_size:
        How many crafted plaintexts the attack loop hands to the
        observation channel per call.  ``1`` (default) reproduces the
        historic one-encryption-at-a-time loop exactly — including its
        RNG draw order and encryption counts.  Larger batches route
        through :meth:`~repro.channel.ObservationChannel.observe_batch`
        (losses applied once per batch), at the cost that a segment
        decision landing mid-batch leaves the rest of that batch's
        encryptions charged: a bounded amount of over-observation,
        never different decisions.
    """

    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    probing_round: int = 1
    use_flush: bool = True
    probe_strategy: str = "flush_reload"
    flush_flush_miss_probability: float = 0.02
    max_encryptions_per_segment: int = 100_000
    max_total_encryptions: Optional[int] = 1_000_000
    seed: Optional[int] = None
    noise: NoiseModel = NO_NOISE
    loss: LossyChannel = LOSSLESS
    voting_confidence: float = 0.9995
    voting_min_observations: int = 16
    voting_stall_window: int = 48
    use_fast_path: bool = True
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.probing_round < 1:
            raise ValueError(
                f"probing_round must be >= 1, got {self.probing_round}"
            )
        if self.probe_strategy not in PRIMITIVE_NAMES:
            raise ValueError(
                f"probe_strategy must be one of {PRIMITIVE_NAMES}, "
                f"got {self.probe_strategy!r}"
            )
        if not 0.0 <= self.flush_flush_miss_probability < 1.0:
            raise ValueError(
                f"flush_flush_miss_probability must be in [0, 1), "
                f"got {self.flush_flush_miss_probability}"
            )
        if self.max_encryptions_per_segment < 1:
            raise ValueError("max_encryptions_per_segment must be positive")
        if (self.max_total_encryptions is not None
                and self.max_total_encryptions < 1):
            raise ValueError("max_total_encryptions must be positive or None")
        if not 0.0 < self.voting_confidence < 1.0:
            raise ValueError("voting_confidence must be in (0, 1)")
        if self.voting_min_observations < 1:
            raise ValueError("voting_min_observations must be positive")
        if self.voting_stall_window < 1:
            raise ValueError("voting_stall_window must be positive")
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )

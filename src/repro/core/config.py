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
from ..targets.layout import TableLayout

#: Probe primitive names accepted by :class:`AttackConfig`.
PROBE_STRATEGIES = ("flush_reload", "prime_probe", "flush_flush")


@dataclass(frozen=True)
class AttackConfig:
    """Parameters of one GRINCH attack run.

    Attributes
    ----------
    geometry:
        Shared-L1 shape; ``geometry.line_words`` is Table I's sweep axis.
    layout:
        Victim table placement in memory.
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
        (see :attr:`voting_active`), exactly like a lossy channel.
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
        equivalent to the full cache simulation (Flush+Reload with
        non-colliding tables); automatically ignored otherwise.
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
    layout: TableLayout = field(default_factory=TableLayout)
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
        if self.probe_strategy not in PROBE_STRATEGIES:
            raise ValueError(
                f"probe_strategy must be one of {PROBE_STRATEGIES}, "
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

    @property
    def voting_active(self) -> bool:
        """Whether segments are recovered by voting instead of strict
        intersection: exactly when the channel is lossy or the
        Flush+Flush readout is noisy."""
        if (self.probe_strategy == "flush_flush"
                and self.flush_flush_miss_probability > 0.0):
            # A noisy Flush+Flush readout loses genuine accesses just
            # like a lossy channel, so strict intersection would
            # contradict on it.
            return True
        return not self.loss.is_lossless

    @property
    def fast_path_applicable(self) -> bool:
        """Whether the accelerated observation path preserves semantics.

        The fast path skips the LRU machinery; that is exact only for
        the line-granular flush-based primitives (Flush+Reload and
        Flush+Flush: the observer's eviction model accounts for the
        victim's own set conflicts, and the readout noise applies
        identically on both paths) —
        Prime+Probe observes at set granularity where the PermBits
        table interferes, so it must run on the full simulator.
        """
        return (self.use_fast_path
                and self.probe_strategy in ("flush_reload", "flush_flush"))

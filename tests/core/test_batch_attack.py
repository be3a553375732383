"""The batched attack loop: batch_size > 1 equals the scalar attack.

``batch_size=1`` (the default) reproduces the historic scalar run
call-for-call — the 464-encryption pin in
``tests/channel/test_observer.py`` keeps guarding that.  These tests
pin the other direction: a batched run recovers the SAME key through
the vectorized channel, lossless and lossy, deterministically at any
batch size, and the budget accounting stays exact.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.degradation import LossyChannel
from repro.core.attack import BudgetExceeded, GrinchAttack
from repro.core.config import AttackConfig
from repro.core.eliminate import CandidateEliminator
from repro.core.voting import VotingEliminator, VotingPolicy
from repro.seeding import derive_key
from repro.targets.registry import get_target


def _attack(target_name="gift64", *, seed=0, **config_kwargs):
    target = get_target(target_name)
    key = derive_key(target.key_bits, seed)
    victim = target.make_victim(key)
    return key, GrinchAttack(victim, AttackConfig(seed=seed,
                                                  **config_kwargs))


class TestConfig:
    def test_default_is_scalar(self):
        assert AttackConfig().batch_size == 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_batch_size_rejected(self, bad):
        with pytest.raises(ValueError):
            AttackConfig(batch_size=bad)


class TestEliminatorBatches:
    @settings(max_examples=20)
    @given(st.lists(st.lists(st.integers(min_value=0, max_value=7),
                             min_size=0, max_size=5),
                    min_size=1, max_size=8))
    def test_candidate_update_batch_equals_sequential(self, raw_windows):
        windows = [frozenset(window) for window in raw_windows]
        universe = frozenset(range(8))
        batched = CandidateEliminator(universe)
        sequential = CandidateEliminator(universe)
        result = batched.update_batch(windows)
        for window in windows:
            sequential.update(window)
        assert result == sequential.candidates
        assert batched.updates == sequential.updates == len(windows)
        assert batched.converged == sequential.converged

    @settings(max_examples=20)
    @given(st.lists(st.lists(st.integers(min_value=0, max_value=7),
                             min_size=0, max_size=5),
                    min_size=1, max_size=8))
    def test_voting_update_batch_equals_sequential(self, raw_windows):
        windows = [frozenset(window) for window in raw_windows]
        universe = frozenset(range(8))
        policy = VotingPolicy(expected_presence=0.8)
        batched = VotingEliminator(universe, policy)
        sequential = VotingEliminator(universe, policy)
        batched.update_batch(windows)
        for window in windows:
            sequential.update(window)
        assert batched.counts == sequential.counts
        assert batched.observations == sequential.observations


class TestBatchedRecovery:
    def test_scalar_pin_is_untouched(self):
        # The seed-0 historic reference: batch_size=1 IS the scalar
        # attack, down to the exact encryption count.
        key, attack = _attack()
        result = attack.recover_master_key()
        assert result.master_key == key
        assert result.verified
        assert result.total_encryptions == 464

    def test_segment_observations_count_every_window(self):
        # Strict segments report the probe windows they consumed: at
        # batch_size=1 they add up to the whole attack's encryptions.
        _, attack = _attack()
        result = attack.recover_master_key()
        observed = sum(segment.observations
                       for outcome in result.rounds
                       for segment in outcome.segments)
        assert observed == result.total_encryptions == 464

    def test_batched_full_key_recovers_same_key(self):
        key, attack = _attack(batch_size=32)
        result = attack.recover_master_key()
        assert result.master_key == key
        assert result.verified
        # Over-observation is bounded: every segment decision costs at
        # most one full batch beyond the scalar effort, never more than
        # batch_size times the scalar total.
        assert 464 <= result.total_encryptions <= 464 * 32

    @pytest.mark.parametrize("batch_size", [2, 8, 64])
    def test_batched_first_round_recovers_all_bits(self, batch_size):
        _, scalar_attack = _attack()
        scalar = scalar_attack.attack_first_round()
        _, attack = _attack(batch_size=batch_size)
        result = attack.attack_first_round()
        assert result.recovered_bits == scalar.recovered_bits == 32
        assert result.outcome.estimate.pair_candidates \
            == scalar.outcome.estimate.pair_candidates

    def test_batched_present80(self):
        key, attack = _attack("present80", batch_size=16)
        result = attack.recover_master_key()
        assert result.master_key == key
        assert result.verified

    def test_batched_lossy_voting_is_deterministic(self):
        runs = []
        for _ in range(2):
            key, attack = _attack(
                batch_size=64,
                loss=LossyChannel(miss_probability=0.2),
            )
            result = attack.recover_master_key()
            assert result.master_key == key
            assert result.verified
            runs.append(result.total_encryptions)
        assert runs[0] == runs[1]

    @settings(max_examples=4, deadline=None)
    @given(st.integers(min_value=2, max_value=96))
    def test_any_batch_size_recovers_the_key(self, batch_size):
        key, attack = _attack(batch_size=batch_size)
        result = attack.recover_master_key()
        assert result.master_key == key
        assert result.verified


class TestBudgetAccounting:
    def test_batch_never_overruns_the_total_budget(self):
        _, attack = _attack(batch_size=32, max_total_encryptions=100)
        with pytest.raises(BudgetExceeded):
            attack.recover_master_key()
        assert attack.total_encryptions == 100

    def test_generous_budget_still_succeeds(self):
        key, attack = _attack(batch_size=32, max_total_encryptions=10_000)
        result = attack.recover_master_key()
        assert result.master_key == key
        assert attack.total_encryptions <= 10_000

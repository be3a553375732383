"""Tests for the L3 degradation models.

The observation/attack-level behaviour of noise, loss, and jitter is
covered by the observer and core suites; this file checks the analytic
claims the degradations make about themselves — in particular that
:meth:`ProbeJitter.target_visibility` agrees with brute-force
Monte-Carlo sampling of :meth:`ProbeJitter.sample`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.degradation import LossyChannel, ProbeJitter

jitters = st.lists(
    st.tuples(st.integers(-6, 6), st.floats(0.05, 1.0)),
    min_size=1, max_size=5,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: ProbeJitter(
    offsets=tuple(offset for offset, _ in pairs),
    weights=tuple(weight for _, weight in pairs),
))


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"miss_probability": -0.1},
        # A certain miss hides every genuine access: no channel at all.
        {"miss_probability": 1.0},
        {"eviction_rate": 1.5},
    ])
    def test_lossy_channel_rejects(self, kwargs):
        with pytest.raises(ValueError):
            LossyChannel(**kwargs)


class TestTargetVisibilityAnalytic:
    def test_still_jitter_always_sees_the_target(self):
        assert ProbeJitter().target_visibility(1) == 1.0
        assert ProbeJitter().target_visibility(3) == 1.0

    def test_deterministic_early_probe_blinds_round_one(self):
        # A probe landing one round early never covers the round-1
        # target (offset -1 < 1 - 1), but a round-2 aim still does.
        jitter = ProbeJitter(offsets=(-1,), weights=(1.0,))
        assert jitter.target_visibility(1) == 0.0
        assert jitter.target_visibility(2) == 1.0

    def test_exact_weighted_mixture(self):
        jitter = ProbeJitter(offsets=(-2, 0, 3), weights=(1.0, 2.0, 1.0))
        # probing_round=1 keeps offsets >= 0: weight 3 of 4.
        assert jitter.target_visibility(1) == pytest.approx(0.75)

    @settings(max_examples=25, deadline=None)
    @given(jitter=jitters, probing_round=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_monte_carlo_sampling(self, jitter, probing_round,
                                          seed):
        # The analytic visibility is the probability that a sampled
        # offset keeps the target round covered: estimate it by
        # brute-force draws from the same distribution.
        rng = random.Random(seed)
        draws = 4_000
        covered = sum(
            1 for _ in range(draws)
            if jitter.sample(rng) >= 1 - probing_round
        )
        analytic = jitter.target_visibility(probing_round)
        assert covered / draws == pytest.approx(analytic, abs=0.03)

    @settings(max_examples=25, deadline=None)
    @given(jitter=jitters, probing_round=st.integers(1, 4))
    def test_visibility_is_a_probability_and_monotone(self, jitter,
                                                      probing_round):
        earlier = jitter.target_visibility(probing_round)
        later = jitter.target_visibility(probing_round + 1)
        assert 0.0 <= earlier <= 1.0
        # Aiming later can only keep more offsets on target.
        assert later >= earlier

    def test_expected_target_presence_composes_jitter(self):
        channel = LossyChannel(
            miss_probability=0.1, eviction_rate=0.5,
            jitter=ProbeJitter(offsets=(-2, 0), weights=(1.0, 1.0)),
        )
        presence = channel.expected_target_presence(
            monitored_lines=16, probing_round=1
        )
        assert presence == pytest.approx(
            0.5 * (1 - 0.5 / 16) * (1 - 0.1)
        )

"""Tests for attack configuration, noise models and result records."""

import random

import pytest

from repro.core.config import AttackConfig
from repro.channel import NO_NOISE, NoiseModel, ObservationChannel
from repro.gift.lut import TracedGift64
from repro.core.results import (
    RoundKeyEstimate,
    SegmentOutcome,
)


class TestAttackConfig:
    def test_defaults_match_paper_setup(self):
        config = AttackConfig()
        assert config.probing_round == 1
        assert config.use_flush
        assert config.probe_strategy == "flush_reload"
        assert config.max_total_encryptions == 1_000_000

    def test_fast_path_applicability(self):
        # The channel takes the fast path exactly for line-granular
        # primitives the config lets use it.
        def fast(**kwargs):
            return ObservationChannel(
                TracedGift64(0), AttackConfig(**kwargs)
            ).fast_path_active

        assert fast()
        assert fast(probe_strategy="flush_flush")
        assert not fast(probe_strategy="prime_probe")
        assert not fast(use_fast_path=False)

    @pytest.mark.parametrize("kwargs", [
        {"probing_round": 0},
        {"probe_strategy": "guess"},
        {"max_encryptions_per_segment": 0},
        {"max_total_encryptions": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AttackConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(Exception):
            AttackConfig().probing_round = 5


class TestNoiseModel:
    def test_silent_by_default(self):
        assert NO_NOISE.is_silent
        assert NO_NOISE.sample([1, 2, 3], random.Random(0)) == []

    def test_certain_noise_samples_requested_count(self):
        model = NoiseModel(touch_probability=1.0, monitored_touches=5)
        samples = model.sample([10, 20, 30], random.Random(1))
        assert len(samples) == 5
        assert all(s in (10, 20, 30) for s in samples)

    def test_probability_gates_whole_windows(self):
        model = NoiseModel(touch_probability=0.5, monitored_touches=1)
        rng = random.Random(2)
        outcomes = [bool(model.sample([1], rng)) for _ in range(200)]
        assert 40 < sum(outcomes) < 160

    def test_empty_address_space(self):
        model = NoiseModel(touch_probability=1.0, monitored_touches=3)
        assert model.sample([], random.Random(0)) == []

    @pytest.mark.parametrize("kwargs", [
        {"touch_probability": -0.1},
        {"touch_probability": 1.5},
        {"monitored_touches": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NoiseModel(**kwargs)


class TestRoundKeyEstimate:
    def _estimate(self, candidates_per_segment=1):
        base = tuple(
            (v, u) for v in (0, 1) for u in (0, 1)
        )[:candidates_per_segment]
        return RoundKeyEstimate(
            round_index=1,
            pair_candidates=[base for _ in range(16)],
        )

    def test_resolved_and_ambiguity(self):
        assert self._estimate(1).resolved
        estimate = self._estimate(2)
        assert not estimate.resolved
        assert estimate.ambiguity == 2 ** 16

    def test_as_round_key_assembles_bits(self):
        estimate = RoundKeyEstimate(
            round_index=1,
            pair_candidates=[((1, 0),)] * 16,
        )
        u, v = estimate.as_round_key()
        assert v == 0xFFFF
        assert u == 0x0000

    def test_as_round_key_requires_resolution(self):
        with pytest.raises(RuntimeError):
            self._estimate(2).as_round_key()

    def test_guess_round_key_with_overrides(self):
        estimate = self._estimate(2)
        u, v = estimate.guess_round_key({0: (1, 1)})
        assert v & 1 == 1
        assert u & 1 == 1

    def test_narrow_segment(self):
        estimate = self._estimate(4)
        estimate.narrow_segment(3, ((0, 1), (1, 0)))
        assert estimate.pair_candidates[3] == ((0, 1), (1, 0))
        estimate.resolve_segment(3, (1, 0))
        assert estimate.pair_candidates[3] == ((1, 0),)

    def test_narrow_validation(self):
        estimate = self._estimate(2)
        with pytest.raises(ValueError):
            estimate.narrow_segment(0, ())
        with pytest.raises(ValueError):
            estimate.narrow_segment(0, ((1, 1),))  # not a candidate

    def test_requires_16_segments(self):
        with pytest.raises(ValueError):
            RoundKeyEstimate(round_index=1, pair_candidates=[((0, 0),)] * 15)
        with pytest.raises(ValueError):
            RoundKeyEstimate(round_index=1, pair_candidates=[()] * 16)


class TestSegmentOutcome:
    def test_ambiguity_flag(self):
        outcome = SegmentOutcome(
            round_index=1, segment=0, encryptions=10, hypotheses_tried=1,
            line=4096, key_pairs=((0, 1),),
        )
        assert not outcome.ambiguous
        outcome.key_pairs = ((0, 1), (1, 1))
        assert outcome.ambiguous

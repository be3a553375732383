"""Tests for the analytic effort model."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.theory import (
    absence_probability,
    class_count,
    expected_first_round_effort,
    expected_full_key_effort,
    expected_max_geometric,
    flush_advantage,
    growth_factor_per_round,
    log_effort_slope,
    practical_probing_round_limit,
    segment_effort,
    visible_noise_accesses,
)
from repro.cache.geometry import CacheGeometry
from repro.targets import get_target, target_names

GIFT64 = get_target("gift64")
TARGETS = tuple(target_names())


def lines(line_words):
    return CacheGeometry(line_words=line_words)


class TestMonitoredLines:
    """The monitored lines are the observation classes of the target's
    declared S-box layout."""

    @pytest.mark.parametrize("line_words,expected",
                             [(1, 16), (2, 8), (4, 4), (8, 2), (16, 1)])
    def test_line_counts(self, line_words, expected):
        for name in TARGETS:
            assert class_count(get_target(name), lines(line_words)) \
                == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            class_count(GIFT64, lines(3))


class TestVisibleWindow:
    def test_flush_window(self):
        assert visible_noise_accesses(GIFT64, 1, use_flush=True) == 15
        assert visible_noise_accesses(GIFT64, 3, use_flush=True) == 47

    def test_no_flush_adds_earlier_rounds(self):
        assert visible_noise_accesses(GIFT64, 1, use_flush=False) == 31
        assert visible_noise_accesses(GIFT64, 1, attacked_round=2,
                                      use_flush=False) == 47

    def test_validation(self):
        with pytest.raises(ValueError):
            visible_noise_accesses(GIFT64, 0)


class TestAbsenceProbability:
    def test_known_value(self):
        assert absence_probability(16, 15) == pytest.approx((15 / 16) ** 15)

    def test_single_line_never_absent(self):
        assert absence_probability(1, 100) == 0.0

    @given(st.integers(2, 16), st.integers(0, 200))
    def test_in_unit_interval(self, lines, accesses):
        p = absence_probability(lines, accesses)
        assert 0.0 < p <= 1.0


class TestExpectedMaxGeometric:
    def test_single_variable_is_plain_geometric(self):
        assert expected_max_geometric(1, 0.5) == pytest.approx(2.0)

    def test_zero_count(self):
        assert expected_max_geometric(0, 0.5) == 0.0

    def test_zero_probability_diverges(self):
        assert expected_max_geometric(3, 0.0) == float("inf")

    def test_matches_monte_carlo(self):
        """Closed form vs. direct simulation of the max of geometrics."""
        rng = random.Random(5)
        count, p = 5, 0.3
        trials = 4000
        total = 0
        for _ in range(trials):
            worst = 0
            for _ in range(count):
                draws = 1
                while rng.random() >= p:
                    draws += 1
                worst = max(worst, draws)
            total += worst
        simulated = total / trials
        predicted = expected_max_geometric(count, p)
        assert simulated == pytest.approx(predicted, rel=0.05)

    def test_stable_for_tiny_probabilities(self):
        value = expected_max_geometric(1, 1e-24)
        assert value == pytest.approx(1e24, rel=1e-6)


class TestEffortModel:
    def test_round1_effort_matches_paper_magnitude(self):
        """Paper Fig. 3 / Table I: ~100 encryptions at probing round 1
        with 1-word lines."""
        effort = expected_first_round_effort(GIFT64, lines(1), 1,
                                             use_flush=True)
        assert 60 <= effort <= 200

    def test_monotone_in_probing_round(self):
        efforts = [
            expected_first_round_effort(GIFT64, lines(1), r)
            for r in range(1, 8)
        ]
        assert efforts == sorted(efforts)

    def test_monotone_in_line_size(self):
        efforts = [
            expected_first_round_effort(GIFT64, lines(lw), 2)
            for lw in (1, 2, 4, 8)
        ]
        assert efforts == sorted(efforts)

    def test_growth_factor_matches_consecutive_ratio(self):
        predicted = growth_factor_per_round(GIFT64, lines(1))
        ratio = (expected_first_round_effort(GIFT64, lines(1), 7)
                 / expected_first_round_effort(GIFT64, lines(1), 6))
        assert ratio == pytest.approx(predicted, rel=0.05)

    def test_flush_advantage_about_the_dirty_round(self):
        """Removing 16 dirty accesses should cost about
        (16/15)^16 ~ 2.8x with 1-word lines."""
        advantage = flush_advantage(GIFT64, lines(1), 3)
        assert 2.0 <= advantage <= 3.5

    def test_log_slope_positive(self):
        assert log_effort_slope(GIFT64, lines(1)) > 0

    def test_per_segment_effort_composes(self):
        assert expected_first_round_effort(GIFT64, lines(1), 1) == \
            pytest.approx(16 * segment_effort(16, 15))


#: GIFT-64 round-1 effort at line words 1/2/4/8 and probing rounds 1-3,
#: as the model computed it when it hard-coded GIFT-64's 16 segments.
GIFT64_ROUND1 = {
    1: (119.13243745163903, 373.38121376503784, 1083.7301010023796),
    2: (294.2085294009042, 2591.2492817342472, 22042.91173611458),
    4: (2188.3405871408627, 219002.47929754818, 21851532.75366039),
    8: (524288.0000000001, 34359738368.0, 2251799813685248.0),
}


class TestGift64Pins:
    @pytest.mark.parametrize("line_words", sorted(GIFT64_ROUND1))
    def test_round1_effort_is_bit_exact(self, line_words):
        assert tuple(
            expected_first_round_effort(GIFT64, lines(line_words), r)
            for r in (1, 2, 3)
        ) == GIFT64_ROUND1[line_words]

    def test_full_key_effort_is_bit_exact(self):
        assert expected_full_key_effort(GIFT64, lines(1)) \
            == 476.52974980655614


@pytest.mark.parametrize("name", TARGETS)
class TestTargetDriven:
    """The model reads segments, key rounds and classes off the target:
    GIFT-128 and GIFT-COFB have 32 segments, the others 16."""

    def test_window_counts_one_access_per_segment(self, name):
        target = get_target(name)
        assert target.segments in (16, 32)
        assert visible_noise_accesses(target, 2) == 2 * target.segments - 1
        assert visible_noise_accesses(target, 1, use_flush=False) \
            == 2 * target.segments - 1

    def test_round_effort_sums_the_segments(self, name):
        target = get_target(name)
        for line_words in (1, 2, 4, 8):
            geometry = lines(line_words)
            per_segment = segment_effort(
                class_count(target, geometry),
                visible_noise_accesses(target, 1))
            assert expected_first_round_effort(target, geometry, 1) == \
                target.segments * per_segment

    def test_full_key_multiplies_the_key_rounds(self, name):
        target = get_target(name)
        assert expected_full_key_effort(target, lines(1)) == pytest.approx(
            target.full_key_rounds
            * expected_first_round_effort(target, lines(1), 1)
        )

    def test_growth_exponent_is_the_segment_count(self, name):
        target = get_target(name)
        assert growth_factor_per_round(target, lines(1)) == \
            pytest.approx((16 / 15) ** target.segments)

    def test_monotone_in_line_size_and_probing_round(self, name):
        target = get_target(name)
        efforts = [expected_first_round_effort(target, lines(lw), r)
                   for lw in (1, 2, 4) for r in (1, 2)]
        assert efforts[0::2] == sorted(efforts[0::2])
        assert all(a < b for a, b in zip(efforts[0::2], efforts[1::2]))

    def test_one_class_predicts_no_progress(self, name):
        target = get_target(name)
        assert expected_first_round_effort(target, lines(16), 1) == math.inf
        assert growth_factor_per_round(target, lines(16)) == math.inf
        assert practical_probing_round_limit(target, lines(16)) is None


class TestDropoutRule:
    def test_one_word_lines_practical_through_round_8ish(self):
        limit = practical_probing_round_limit(GIFT64, lines(1))
        assert 7 <= limit <= 10

    def test_eight_word_lines_only_round_one(self):
        limit = practical_probing_round_limit(GIFT64, lines(8))
        assert limit == 1

    def test_matches_table1_dropout_pattern(self):
        """The >1M cells of Table I: line size 2 drops out at round 5,
        line 4 at round 3, line 8 at round 2."""
        assert practical_probing_round_limit(GIFT64, lines(2)) == 4
        assert practical_probing_round_limit(GIFT64, lines(4)) == 2
        assert practical_probing_round_limit(GIFT64, lines(8)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            practical_probing_round_limit(GIFT64, lines(1), budget=0)

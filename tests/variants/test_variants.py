"""Tests for the trace-driven and time-driven attack variants."""

import random

import pytest

from repro.cache.geometry import CacheGeometry
from repro.channel.observer import MemoryLatencies
from repro.core.errors import BudgetExceeded
from repro.gift.keyschedule import round_keys
from repro.gift.lut import TracedGift64, TracedGift128
from repro.variants import (
    TimeDrivenAttack,
    TraceDrivenAttack,
    observe_window,
)


@pytest.fixture
def planted():
    key = random.Random(0xBEEF).getrandbits(128)
    victim = TracedGift64(key)
    u1, v1 = round_keys(key, 1, width=64)[0]
    return victim, u1, v1


class TestObservationChannels:
    def test_window_has_one_bit_per_sbox_access(self, planted):
        victim, _, _ = planted
        observation = observe_window(
            victim, 0x1234, CacheGeometry(), first_round=1, last_round=2
        )
        assert observation.accesses == 32  # 2 rounds x 16 segments

    def test_first_touch_is_always_a_miss(self, planted):
        victim, _, _ = planted
        observation = observe_window(
            victim, 0xFEDCBA9876543210, CacheGeometry(),
            first_round=1, last_round=1,
        )
        assert observation.hit_miss[0] is False  # cold cache

    def test_misses_equal_distinct_lines(self, planted):
        victim, _, _ = planted
        plaintext = 0x0123456789ABCDEF
        observation = observe_window(
            victim, plaintext, CacheGeometry(), first_round=1, last_round=1
        )
        distinct = len({(plaintext >> (4 * s)) & 0xF for s in range(16)})
        assert observation.misses == distinct

    def test_repeated_nibbles_hit(self, planted):
        victim, _, _ = planted
        observation = observe_window(
            victim, 0x0, CacheGeometry(), first_round=1, last_round=1
        )
        # All sixteen round-1 accesses load index 0: 1 miss, 15 hits.
        assert observation.misses == 1

    def test_latency_is_affine_in_misses(self, planted):
        victim, _, _ = planted
        latencies = MemoryLatencies(l1_hit_cycles=1, l1_miss_cycles=10)
        observation = observe_window(
            victim, 0x0123456789ABCDEF, CacheGeometry(),
            first_round=1, last_round=2, latencies=latencies,
        )
        hits = observation.accesses - observation.misses
        assert observation.latency_cycles == hits + 10 * observation.misses

    def test_rejects_empty_window(self, planted):
        victim, _, _ = planted
        with pytest.raises(ValueError):
            observe_window(victim, 0, CacheGeometry(), 3, 2)


class TestTraceDriven:
    @pytest.mark.parametrize("segment", [0, 7, 15])
    def test_recovers_single_segments(self, planted, segment):
        victim, u1, v1 = planted
        attack = TraceDrivenAttack(victim, seed=segment)
        recovery = attack.recover_segment(segment)
        expected = ((v1 >> segment) & 1, (u1 >> segment) & 1)
        assert recovery.key_pairs == (expected,)

    def test_recovers_full_round_one_key(self, planted):
        victim, u1, v1 = planted
        attack = TraceDrivenAttack(victim, seed=5)
        assert attack.recover_first_round_key() == (u1, v1)

    def test_needs_few_encryptions(self, planted):
        """The round-1 self-priming makes this variant cheap: a miss
        eliminates many lines at once."""
        victim, _, _ = planted
        attack = TraceDrivenAttack(victim, seed=6)
        recovery = attack.recover_segment(0)
        assert recovery.encryptions < 200

    def test_works_on_gift128(self):
        key = random.Random(11).getrandbits(128)
        victim = TracedGift128(key)
        u1, v1 = round_keys(key, 1, width=128)[0]
        attack = TraceDrivenAttack(victim, seed=7)
        recovery = attack.recover_segment(4)
        expected = ((v1 >> 4) & 1, (u1 >> 4) & 1)
        assert recovery.key_pairs == (expected,)

    def test_budget_raises(self, planted):
        victim, _, _ = planted
        attack = TraceDrivenAttack(victim, seed=8,
                                   max_encryptions_per_segment=1)
        with pytest.raises(BudgetExceeded):
            attack.recover_segment(0)

    def test_pinned_line_never_eliminated(self, planted):
        """Soundness invariant: across many crafted encryptions, a miss
        of the target access never coincides with round-1 coverage of
        the true line."""
        victim, u1, v1 = planted
        segment = 2
        attack = TraceDrivenAttack(victim, seed=9)
        recovery = attack.recover_segment(segment)
        true_pair = ((v1 >> segment) & 1, (u1 >> segment) & 1)
        assert true_pair in recovery.key_pairs


class TestTimeDriven:
    def test_recovers_a_segment_from_latency_alone(self, planted):
        victim, u1, v1 = planted
        attack = TimeDrivenAttack(victim, seed=10)
        recovery = attack.recover_segment(3, samples=3_000)
        expected = ((v1 >> 3) & 1, (u1 >> 3) & 1)
        assert recovery.key_pairs == (expected,)
        assert recovery.margin > 0

    def test_gap_separation_matches_theory(self, planted):
        """Candidates other than the pinned line are touched by round 2
        only with probability ~1-(15/16)^15, so their conditional gap
        sits ~0.35 misses below the pinned line's — the margin between
        best and runner-up must reflect that separation."""
        victim, _, _ = planted
        attack = TimeDrivenAttack(victim, seed=11)
        recovery = attack.recover_segment(5, samples=4_000)
        assert recovery.margin > 0.1
        runner_up_gaps = [s.gap for s in recovery.scores[1:]]
        assert recovery.scores[0].gap - max(runner_up_gaps) > 0.1

    def test_needs_many_more_samples_than_trace_driven(self, planted):
        """The taxonomy's quantitative content: coarser channel, more
        encryptions."""
        victim, _, _ = planted
        trace_cost = TraceDrivenAttack(
            victim, seed=12
        ).recover_segment(0).encryptions
        assert trace_cost * 10 < 3_000  # time-driven sample budget

    def test_rejects_flat_latency_model(self, planted):
        victim, _, _ = planted
        with pytest.raises(ValueError):
            TimeDrivenAttack(
                victim,
                latencies=MemoryLatencies(l1_hit_cycles=5,
                                          l1_miss_cycles=5),
            )

    def test_rejects_tiny_sample_budget(self, planted):
        victim, _, _ = planted
        with pytest.raises(ValueError):
            TimeDrivenAttack(victim, seed=1).recover_segment(0, samples=1)

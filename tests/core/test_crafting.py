"""Tests for Algorithm 2 and the multi-round plaintext inversion.

The central soundness property: a crafted plaintext, encrypted under
the *true* key, makes the monitored round-(t+1) S-box access of the
target segment hit exactly the index predicted by
:func:`repro.core.recover.expected_index`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crafting import PlaintextCrafter, build_target_round_input
from repro.core.recover import expected_index
from repro.core.target_bits import set_target_bits
from repro.gift.cipher import Gift64
from repro.gift.keyschedule import round_keys
from repro.targets import get_target

keys = st.integers(min_value=0, max_value=(1 << 128) - 1)


def _target_index(key, plaintext, spec):
    """Ground truth: the S-box input of the monitored access."""
    states = Gift64(key).round_states(plaintext, rounds=spec.round_index)
    round_output = states[spec.round_index - 1].after_add_round_key
    return (round_output >> (4 * spec.segment)) & 0xF


class TestInvertRounds:
    @settings(max_examples=20)
    @given(keys, st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=1, max_value=4))
    def test_inversion_matches_forward_rounds(self, key, state, rounds):
        rks = round_keys(key, rounds, width=64)
        plaintext = get_target("gift64").invert_rounds(state, rks)
        states = Gift64(key).round_states(plaintext, rounds=rounds)
        assert states[-1].after_add_round_key == state

    def test_zero_rounds_is_identity(self):
        assert get_target("gift64").invert_rounds(0xDEADBEEF, []) == 0xDEADBEEF


class TestRoundOneCrafting:
    @settings(max_examples=10)
    @given(keys, st.integers(min_value=0, max_value=15))
    def test_crafted_plaintext_pins_the_target_index(self, key, segment):
        """For a round-1 target the crafted plaintext must make the
        round-2 S-box input of the target segment equal the predicted
        index — for *any* key."""
        spec = set_target_bits(1, segment)
        crafter = PlaintextCrafter(spec, [], random.Random(1))
        v_bit, u_bit = (
            (key >> spec.key_bit_positions[0]) & 1,
            (key >> spec.key_bit_positions[1]) & 1,
        )
        expected = expected_index(spec, v_bit, u_bit)
        for plaintext in crafter.craft_many(5):
            assert _target_index(key, plaintext, spec) == expected

    def test_non_source_segments_vary(self):
        spec = set_target_bits(1, 0)
        crafter = PlaintextCrafter(spec, [], random.Random(2))
        plaintexts = crafter.craft_many(50)
        free_segment = next(
            s for s in range(16) if s not in spec.source_segments
        )
        nibbles = {(p >> (4 * free_segment)) & 0xF for p in plaintexts}
        assert len(nibbles) > 8  # essentially uniform

    def test_source_segments_stay_within_their_lists(self):
        spec = set_target_bits(1, 7)
        crafter = PlaintextCrafter(spec, [], random.Random(3))
        for plaintext in crafter.craft_many(30):
            for segment, allowed in spec.valid_inputs.items():
                nibble = (plaintext >> (4 * segment)) & 0xF
                assert nibble in allowed


class TestDeeperRoundCrafting:
    @settings(max_examples=8)
    @given(keys, st.integers(min_value=0, max_value=15),
           st.integers(min_value=2, max_value=4))
    def test_pins_deeper_targets_with_true_prior_keys(self, key, segment,
                                                      round_index):
        """Step 5: with the earlier round keys known, crafting pins
        round-t targets exactly the same way."""
        spec = set_target_bits(round_index, segment)
        prior = round_keys(key, round_index - 1, width=64)
        crafter = PlaintextCrafter(spec, prior, random.Random(4))
        v_bit = (key >> spec.key_bit_positions[0]) & 1
        u_bit = (key >> spec.key_bit_positions[1]) & 1
        expected = expected_index(spec, v_bit, u_bit)
        for plaintext in crafter.craft_many(3):
            assert _target_index(key, plaintext, spec) == expected

    def test_wrong_prior_key_breaks_the_pin(self):
        """A wrong guess of a source segment's previous-round key bits
        makes the target index vary — the signal hypothesis testing
        relies on."""
        key = random.Random(9).getrandbits(128)
        spec = set_target_bits(2, 5)
        true_prior = round_keys(key, 1, width=64)
        # Flip the V bit of one source segment of round 1.
        wrong_segment = spec.source_segments[0]
        u, v = true_prior[0]
        wrong_prior = [(u, v ^ (1 << wrong_segment))]
        crafter = PlaintextCrafter(spec, wrong_prior, random.Random(5))
        indices = {
            _target_index(key, plaintext, spec)
            for plaintext in crafter.craft_many(60)
        }
        assert len(indices) > 1


class TestBuildTargetRoundInput:
    def test_respects_constraints(self):
        spec = set_target_bits(1, 11)
        rng = random.Random(6)
        for _ in range(20):
            state = build_target_round_input(spec, rng)
            for segment, allowed in spec.valid_inputs.items():
                assert (state >> (4 * segment)) & 0xF in allowed


class TestValidation:
    def test_prior_key_count_checked(self):
        spec = set_target_bits(2, 0)
        with pytest.raises(ValueError):
            PlaintextCrafter(spec, [], random.Random(0))

    def test_craft_many_rejects_negative(self):
        spec = set_target_bits(1, 0)
        crafter = PlaintextCrafter(spec, [], random.Random(0))
        with pytest.raises(ValueError):
            crafter.craft_many(-1)

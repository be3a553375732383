"""Tests for the width-derived GIFT attack facts on the GIFT targets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gift.keyschedule import round_keys
from repro.targets import resolve_target_for
from repro.targets.gift import TracedGift64, TracedGift128, gift64, gift128

keys = st.integers(min_value=0, max_value=(1 << 128) - 1)


class TestProfileFacts:
    def test_gift64_profile(self):
        assert gift64.segments == 16
        assert gift64.key_offsets == (0, 1)
        assert gift64.free_offsets == (2, 3)
        assert gift64.full_key_rounds == 4
        assert gift64.verification_round == 5
        assert gift64.bits_per_round == 32

    def test_gift128_profile(self):
        assert gift128.segments == 32
        assert gift128.key_offsets == (1, 2)
        assert gift128.free_offsets == (0, 3)
        assert gift128.full_key_rounds == 2
        assert gift128.verification_round == 3
        assert gift128.bits_per_round == 64

    def test_lookup(self):
        assert resolve_target_for(TracedGift64(0)) is gift64
        assert resolve_target_for(TracedGift128(0)) is gift128
        with pytest.raises(ValueError):
            type(gift64)("gift96", width=96, rounds=28)


class TestMasterKeyMapping:
    @given(keys)
    @settings(max_examples=20)
    def test_gift64_assembly_roundtrip(self, key):
        rks = round_keys(key, 4, width=64)
        assert gift64.assemble_master_key(rks) == key

    @given(keys)
    @settings(max_examples=20)
    def test_gift128_assembly_roundtrip(self, key):
        """GIFT-128's two first round keys jointly hold the whole master
        key — the structural reason GRINCH needs only two rounds there."""
        rks = round_keys(key, 2, width=128)
        assert gift128.assemble_master_key(rks) == key

    @given(keys)
    @settings(max_examples=20)
    def test_mapping_matches_schedule_bits(self, key):
        rks = round_keys(key, 2, width=128)
        for round_index, (u, v) in enumerate(rks, start=1):
            for segment in (0, 13, 31):
                v_pos, u_pos = gift128.master_key_bit_positions(
                    round_index, segment
                )
                assert (v >> segment) & 1 == (key >> v_pos) & 1
                assert (u >> segment) & 1 == (key >> u_pos) & 1

    def test_mapping_bounds(self):
        with pytest.raises(ValueError):
            gift64.master_key_bit_positions(5, 0)
        with pytest.raises(ValueError):
            gift128.master_key_bit_positions(3, 0)
        with pytest.raises(ValueError):
            gift128.master_key_bit_positions(1, 32)

    def test_assembly_validates_count(self):
        with pytest.raises(ValueError):
            gift128.assemble_master_key([(0, 0)])
        with pytest.raises(ValueError):
            gift128.assemble_master_key([(1 << 32, 0), (0, 0)])


class TestVerificationKey:
    @given(keys)
    @settings(max_examples=20)
    def test_gift64_round5_prediction(self, key):
        rks = round_keys(key, 5, width=64)
        assert gift64.verification_round_key(rks[:4]) == rks[4]

    @given(keys)
    @settings(max_examples=20)
    def test_gift128_round3_prediction(self, key):
        """RK3 of GIFT-128 is fully determined by RK1 — the verification
        stage's foundation for the 128-bit variant."""
        rks = round_keys(key, 3, width=128)
        assert gift128.verification_round_key(rks[:2]) == rks[2]

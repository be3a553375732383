"""Tests for the GIFT key schedule and its attack-facing bookkeeping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gift.keyschedule import GiftKeyState, key_xor_state_bits, round_keys
from repro.targets.gift import gift64

keys = st.integers(min_value=0, max_value=(1 << 128) - 1)


class TestKeyState:
    def test_word_extraction(self):
        state = GiftKeyState(0x7777_6666_5555_4444_3333_2222_1111_0000)
        assert state.words() == (0x0000, 0x1111, 0x2222, 0x3333,
                                 0x4444, 0x5555, 0x6666, 0x7777)

    def test_round_key_64_uses_low_words(self):
        state = GiftKeyState(0x7777_6666_5555_4444_3333_2222_1111_0000)
        assert state.round_key(64) == (0x1111, 0x0000)

    def test_round_key_128_uses_four_words(self):
        state = GiftKeyState(0x7777_6666_5555_4444_3333_2222_1111_0000)
        u, v = state.round_key(128)
        assert u == 0x5555_4444
        assert v == 0x1111_0000

    def test_update_rotates_32_bits_with_local_rotations(self):
        # Paper Fig. 1: whole state >>> 32; consumed words get >>> 2
        # and >>> 12 respectively.
        state = GiftKeyState(0x7777_6666_5555_4444_3333_2222_1111_0000)
        state.update()
        words = state.words()
        assert words[:6] == (0x2222, 0x3333, 0x4444, 0x5555,
                             0x6666, 0x7777)
        # k1 = 0x1111 >>> 2 and k0 = 0x0000 >>> 12.
        assert words[7] == 0x4444 + 0x0  # 0x1111 ror 2 == 0x4444
        assert words[6] == 0x0000

    def test_update_local_rotation_values(self):
        state = GiftKeyState((0x8001 << 16) | 0x8001)
        state.update()
        words = state.words()
        assert words[7] == ((0x8001 >> 2) | (0x8001 << 14)) & 0xFFFF
        assert words[6] == ((0x8001 >> 12) | (0x8001 << 4)) & 0xFFFF

    @given(keys)
    def test_copy_is_independent(self, key):
        state = GiftKeyState(key)
        clone = state.copy()
        state.update()
        assert clone.value == key

    def test_rejects_oversized_key(self):
        with pytest.raises(ValueError):
            GiftKeyState(1 << 128)

    def test_rejects_bad_word_index(self):
        with pytest.raises(ValueError):
            GiftKeyState(0).word(8)


class TestRoundKeys:
    @given(keys)
    def test_first_four_round_keys_are_disjoint_quarters(self, key):
        """Rounds 1-4 consume the four 32-bit quarters of the master key
        — the structural fact GRINCH's four-stage recovery relies on."""
        rks = round_keys(key, 4, width=64)
        for round_index, (u, v) in enumerate(rks, start=1):
            quarter = (key >> (32 * (round_index - 1))) & 0xFFFFFFFF
            assert v == quarter & 0xFFFF
            assert u == quarter >> 16

    @given(keys)
    def test_round_five_key_is_rotation_of_round_one(self, key):
        """RK5 = (RK1.U >>> 2, RK1.V >>> 12): the verification stage's
        ability to predict round 5 from round 1 depends on this."""
        rks = round_keys(key, 5, width=64)
        u1, v1 = rks[0]
        u5, v5 = rks[4]
        assert u5 == ((u1 >> 2) | (u1 << 14)) & 0xFFFF
        assert v5 == ((v1 >> 12) | (v1 << 4)) & 0xFFFF

    @given(keys)
    def test_assemble_inverts_extraction(self, key):
        rks = round_keys(key, 4, width=64)
        assert gift64.assemble_master_key(rks) == key

    def test_assemble_validates_input(self):
        with pytest.raises(ValueError):
            gift64.assemble_master_key([(0, 0)] * 3)
        with pytest.raises(ValueError):
            gift64.assemble_master_key([(1 << 16, 0)] + [(0, 0)] * 3)
        with pytest.raises(ValueError):
            gift64.assemble_master_key([(0, 1 << 16)] + [(0, 0)] * 3)


class TestStateBitMapping:
    def test_gift64_positions(self):
        u_positions, v_positions = key_xor_state_bits(64)
        assert v_positions[:4] == (0, 4, 8, 12)
        assert u_positions[:4] == (1, 5, 9, 13)

    def test_gift128_positions(self):
        u_positions, v_positions = key_xor_state_bits(128)
        assert v_positions[0] == 1
        assert u_positions[0] == 2
        assert len(u_positions) == 32

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            key_xor_state_bits(96)


class TestSegmentKeyBits:
    def test_paper_example_segment_zero(self):
        # "the two LSB bits of the first segment are XORed with key-bit 0
        # and key-bit 16" (Section II).
        assert gift64.master_key_bit_positions(1, 0) == (0, 16)

    def test_next_segment_uses_bits_1_and_17(self):
        assert gift64.master_key_bit_positions(1, 1) == (1, 17)

    def test_rounds_step_by_32_bits(self):
        for round_index in range(1, 5):
            v_bit, u_bit = gift64.master_key_bit_positions(round_index, 0)
            assert v_bit == 32 * (round_index - 1)
            assert u_bit == 32 * (round_index - 1) + 16

    def test_all_128_bits_covered_exactly_once(self):
        seen = set()
        for round_index in range(1, 5):
            for segment in range(16):
                seen.update(gift64.master_key_bit_positions(round_index,
                                                            segment))
        assert seen == set(range(128))

    def test_bounds(self):
        with pytest.raises(ValueError):
            gift64.master_key_bit_positions(5, 0)
        with pytest.raises(ValueError):
            gift64.master_key_bit_positions(1, 16)
        with pytest.raises(ValueError):
            gift64.master_key_bit_positions(0, 0)

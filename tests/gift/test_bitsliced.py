"""The bitsliced batch GIFT backend against the scalar references.

Every property here pins the batch path to the scalar one the attack
already trusts: ``encrypt_batch`` against :class:`repro.gift.cipher`,
``sbox_indices_batch`` (full and bounded ``max_rounds``) against the
traced LUT victim — including the key-schedule and table-layout
countermeasure subclasses, which :meth:`BitslicedGiftCipher.from_victim`
must absorb without any per-subclass code.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gift.bitsliced import (
    BitslicedGift64,
    BitslicedGift128,
    BitslicedGiftCipher,
)
from repro.gift.cipher import Gift64, Gift128
from repro.gift.vectors import GIFT64_VECTORS, GIFT128_VECTORS
from repro.countermeasures.hardened_schedule import HardenedKeyScheduleGift64
from repro.countermeasures.reshaped_sbox import ReshapedSboxGift64
from repro.targets.gift import TracedGift64, TracedGift128

keys = st.integers(min_value=0, max_value=(1 << 128) - 1)
blocks64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
blocks128 = st.integers(min_value=0, max_value=(1 << 128) - 1)
batches64 = st.lists(blocks64, min_size=1, max_size=12)
batches128 = st.lists(blocks128, min_size=1, max_size=8)


class TestKnownAnswers:
    @pytest.mark.parametrize("vector", GIFT64_VECTORS)
    def test_gift64_official_vectors(self, vector):
        batch = BitslicedGift64(vector.key)
        assert batch.encrypt_batch([vector.plaintext]) \
            == [vector.ciphertext]

    @pytest.mark.parametrize("vector", GIFT128_VECTORS)
    def test_gift128_official_vectors(self, vector):
        batch = BitslicedGift128(vector.key)
        assert batch.encrypt_batch([vector.plaintext]) \
            == [vector.ciphertext]

    def test_all_vectors_as_one_batch(self):
        batch = BitslicedGift64(GIFT64_VECTORS[0].key)
        same_key = [v for v in GIFT64_VECTORS
                    if v.key == GIFT64_VECTORS[0].key]
        assert batch.encrypt_batch([v.plaintext for v in same_key]) \
            == [v.ciphertext for v in same_key]


class TestBatchMatchesScalar:
    @settings(max_examples=25)
    @given(keys, batches64)
    def test_gift64_encrypt_batch(self, key, plaintexts):
        scalar = Gift64(key)
        assert BitslicedGift64(key).encrypt_batch(plaintexts) \
            == [scalar.encrypt(p) for p in plaintexts]

    @settings(max_examples=12)
    @given(keys, batches128)
    def test_gift128_encrypt_batch(self, key, plaintexts):
        scalar = Gift128(key)
        assert BitslicedGift128(key).encrypt_batch(plaintexts) \
            == [scalar.encrypt(p) for p in plaintexts]

    @settings(max_examples=15)
    @given(keys, batches64, st.integers(min_value=1, max_value=28))
    def test_gift64_reduced_rounds(self, key, plaintexts, rounds):
        scalar = Gift64(key, rounds=rounds)
        assert BitslicedGift64(key, rounds=rounds) \
            .encrypt_batch(plaintexts) \
            == [scalar.encrypt(p) for p in plaintexts]


class TestTracedIndices:
    @settings(max_examples=20)
    @given(keys, batches64, st.integers(min_value=1, max_value=6))
    def test_gift64_sbox_indices_batch(self, key, plaintexts, max_rounds):
        victim = TracedGift64(key)
        indices = BitslicedGift64(key).sbox_indices_batch(
            plaintexts, max_rounds=max_rounds
        )
        assert indices.shape == (max_rounds, 16, len(plaintexts))
        for n, plaintext in enumerate(plaintexts):
            expected = victim.sbox_indices_by_round(plaintext, max_rounds)
            for round_index in range(max_rounds):
                assert list(indices[round_index, :, n]) \
                    == list(expected[round_index])

    @settings(max_examples=8)
    @given(keys, batches128, st.integers(min_value=1, max_value=4))
    def test_gift128_sbox_indices_batch(self, key, plaintexts, max_rounds):
        victim = TracedGift128(key)
        indices = BitslicedGift128(key).sbox_indices_batch(
            plaintexts, max_rounds=max_rounds
        )
        assert indices.shape == (max_rounds, 32, len(plaintexts))
        for n, plaintext in enumerate(plaintexts):
            expected = victim.sbox_indices_by_round(plaintext, max_rounds)
            for round_index in range(max_rounds):
                assert list(indices[round_index, :, n]) \
                    == list(expected[round_index])

    @settings(max_examples=15)
    @given(keys, batches64, st.integers(min_value=1, max_value=28))
    def test_bounded_max_rounds_match_reduced_round_cipher(
            self, key, plaintexts, max_rounds):
        # A bounded max_rounds trace is the prefix of the full one and
        # the whole trace of the max_rounds-round cipher, whose
        # encrypt_batch is the scalar reduced-round victim's.
        full = BitslicedGift64(key)
        reduced = BitslicedGift64(key, rounds=max_rounds)
        bounded = full.sbox_indices_batch(plaintexts, max_rounds=max_rounds)
        assert bounded.shape == (max_rounds, 16, len(plaintexts))
        assert (bounded == full.sbox_indices_batch(plaintexts)
                [:max_rounds]).all()
        assert (bounded == reduced.sbox_indices_batch(plaintexts)).all()
        victim = TracedGift64(key, rounds=max_rounds)
        assert reduced.encrypt_batch(plaintexts) \
            == [victim.encrypt(p) for p in plaintexts]


class TestCountermeasureVictims:
    """``from_victim`` must absorb the countermeasure subclasses."""

    @settings(max_examples=15)
    @given(keys, batches64)
    def test_hardened_schedule_round_keys_picked_up(self, key, plaintexts):
        victim = HardenedKeyScheduleGift64(key)
        batch = BitslicedGiftCipher.from_victim(victim)
        assert batch.encrypt_batch(plaintexts) \
            == [victim.encrypt(p) for p in plaintexts]

    def test_hardened_schedule_differs_from_standard(self):
        key = 0x0123456789ABCDEF0123456789ABCDEF
        hardened = BitslicedGiftCipher.from_victim(
            HardenedKeyScheduleGift64(key)
        )
        assert hardened.encrypt_batch([0]) != BitslicedGift64(key) \
            .encrypt_batch([0])

    @settings(max_examples=15)
    @given(keys, batches64)
    def test_reshaped_sbox_is_value_identical(self, key, plaintexts):
        # The reshaped layout only changes load *addresses*; both the
        # ciphertexts and the traced index values are those of plain
        # GIFT-64, so one bitsliced backend serves both.
        victim = ReshapedSboxGift64(key)
        batch = BitslicedGiftCipher.from_victim(victim)
        assert batch.encrypt_batch(plaintexts) \
            == [victim.encrypt(p) for p in plaintexts]
        indices = batch.sbox_indices_batch(plaintexts, max_rounds=2)
        for n, plaintext in enumerate(plaintexts):
            expected = victim.sbox_indices_by_round(plaintext, 2)
            for round_index in range(2):
                assert list(indices[round_index, :, n]) \
                    == list(expected[round_index])

    @settings(max_examples=10)
    @given(keys, batches64)
    def test_from_victim_matches_master_key_constructor(self, key,
                                                        plaintexts):
        victim = TracedGift64(key)
        assert BitslicedGiftCipher.from_victim(victim) \
            .encrypt_batch(plaintexts) \
            == BitslicedGift64(key).encrypt_batch(plaintexts)


class TestEdges:
    def test_empty_batch(self):
        batch = BitslicedGift64(0)
        assert batch.encrypt_batch([]) == []
        assert batch.sbox_indices_batch([], max_rounds=3).shape \
            == (3, 16, 0)

    def test_oversized_block_rejected(self):
        with pytest.raises(ValueError):
            BitslicedGift64(0).encrypt_batch([1 << 64])

    def test_bad_max_rounds_rejected(self):
        batch = BitslicedGift64(0)
        with pytest.raises(ValueError):
            batch.sbox_indices_batch([0], max_rounds=0)
        with pytest.raises(ValueError):
            batch.sbox_indices_batch([0], max_rounds=29)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            BitslicedGiftCipher(32, 4, [(0, 0)] * 4)

    def test_short_schedule_rejected(self):
        with pytest.raises(ValueError):
            BitslicedGiftCipher(64, 4, [(0, 0)] * 3)

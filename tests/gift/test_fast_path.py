"""The trace-free fast path must be ciphertext-identical to tracing.

Every trace-discarding call site (engine trial bodies, voting stall
re-crafts, countermeasure known-answer checks) now goes through
``encrypt()`` without building an :class:`EncryptionTrace`; these tests
pin that the fast path computes the *same cipher* as the traced path on
every variant, width, and round count, and that the precomputation the
fast path relies on (fused tables, inject masks, cached inverse
permutation, memoised ``round_key_mask``) behaves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.countermeasures.hardened_schedule import HardenedKeyScheduleGift64
from repro.countermeasures.reshaped_sbox import ReshapedSboxGift64
from repro.gift.cipher import Gift64, Gift128, round_key_mask
from repro.gift.lut import TracedGift64, TracedGift128
from repro.gift.vectors import GIFT64_VECTORS, GIFT128_VECTORS

keys = st.integers(min_value=0, max_value=(1 << 128) - 1)
blocks64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
blocks128 = st.integers(min_value=0, max_value=(1 << 128) - 1)

GIFT64_VARIANTS = (TracedGift64, HardenedKeyScheduleGift64,
                   ReshapedSboxGift64)


class TestFastEqualsTraced:
    @pytest.mark.parametrize("victim_cls", GIFT64_VARIANTS)
    @settings(max_examples=25)
    @given(key=keys, plaintext=blocks64)
    def test_gift64_variants(self, victim_cls, key, plaintext):
        victim = victim_cls(key)
        assert victim.encrypt(plaintext) == \
            victim.encrypt_traced(plaintext).ciphertext

    @settings(max_examples=10)
    @given(keys, blocks128)
    def test_gift128(self, key, plaintext):
        victim = TracedGift128(key)
        assert victim.encrypt(plaintext) == \
            victim.encrypt_traced(plaintext).ciphertext

    @settings(max_examples=10)
    @given(keys, blocks64, st.integers(min_value=1, max_value=28))
    def test_reduced_round_counts(self, key, plaintext, rounds):
        victim = TracedGift64(key, rounds=rounds)
        assert victim.encrypt(plaintext) == \
            victim.encrypt_traced(plaintext).ciphertext

    @pytest.mark.parametrize("vector", GIFT64_VECTORS)
    def test_official_vectors_gift64(self, vector):
        victim = TracedGift64(vector.key)
        assert victim.encrypt(vector.plaintext) == vector.ciphertext
        assert victim.decrypt(vector.ciphertext) == vector.plaintext

    @pytest.mark.parametrize("vector", GIFT128_VECTORS)
    def test_official_vectors_gift128(self, vector):
        victim = TracedGift128(vector.key)
        assert victim.encrypt(vector.plaintext) == vector.ciphertext
        assert victim.decrypt(vector.ciphertext) == vector.plaintext

    @pytest.mark.parametrize("victim_cls", GIFT64_VARIANTS)
    @settings(max_examples=15)
    @given(key=keys, plaintext=blocks64)
    def test_decrypt_inverts_fast_path(self, victim_cls, key, plaintext):
        victim = victim_cls(key)
        assert victim.decrypt(victim.encrypt(plaintext)) == plaintext

    def test_fast_path_emits_no_trace(self):
        victim = TracedGift64(0x123)
        accesses = []
        victim.encrypt(0x456)
        # encrypt_traced is the only producer of MemoryAccess records;
        # the fast path must not have grown a hidden dependency on it.
        original = victim.encrypt_traced

        def spy(*args, **kwargs):
            accesses.append(args)
            return original(*args, **kwargs)

        victim.encrypt_traced = spy
        victim.encrypt(0x789)
        assert accesses == []


class TestPrecomputation:
    def test_inject_masks_reflect_key_schedule_override(self):
        key = 0xFEDC_BA98_7654_3210_0123_4567_89AB_CDEF
        plain, hardened = TracedGift64(key), HardenedKeyScheduleGift64(key)
        assert hardened._round_keys == hardened.compute_round_keys()
        assert plain._round_keys != hardened._round_keys
        assert plain._post_masks != hardened._post_masks
        assert plain.encrypt(0) != hardened.encrypt(0)

    def test_inverse_permutation_cached_on_instance(self):
        victim = TracedGift64(0x1)
        first = victim._inverse_permutation
        victim.decrypt(victim.encrypt(0x2))
        assert victim._inverse_permutation is first

    def test_reference_cipher_inverse_permutation_cached(self):
        cipher = Gift64(0x1)
        first = cipher._inverse_permutation
        cipher.decrypt(cipher.encrypt(0x2))
        assert cipher._inverse_permutation is first

    def test_round_key_mask_is_memoised(self):
        before = round_key_mask.cache_info().hits
        value = round_key_mask(0xBEEF, 0xCAFE, 64)
        assert round_key_mask(0xBEEF, 0xCAFE, 64) == value
        assert round_key_mask.cache_info().hits > before

    @settings(max_examples=10)
    @given(keys, blocks128)
    def test_reference_cipher_matches_traced_gift128(self, key, plaintext):
        assert Gift128(key).encrypt(plaintext) == \
            TracedGift128(key).encrypt(plaintext)

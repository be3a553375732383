"""The bitsliced batch PRESENT backend against the scalar references.

Mirrors ``tests/gift/test_bitsliced.py``: ``encrypt_batch`` is pinned
to :class:`repro.present.cipher.Present`, the traced index batch to
:class:`repro.present.lut.TracedPresent` — and the LUT-free S-box's
algebraic normal form is re-derived against ``PRESENT_SBOX`` itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.present.bitsliced import PRESENT_SBOX_ANF, BitslicedPresent
from repro.present.cipher import PRESENT_SBOX, Present
from repro.present.lut import TracedPresent
from repro.present.vectors import PRESENT80_VECTORS, PRESENT128_VECTORS

blocks = st.integers(min_value=0, max_value=(1 << 64) - 1)
batches = st.lists(blocks, min_size=1, max_size=12)
keys80 = st.integers(min_value=0, max_value=(1 << 80) - 1)
keys128 = st.integers(min_value=0, max_value=(1 << 128) - 1)


class TestSboxAnf:
    def test_anf_reproduces_the_sbox(self):
        for x in range(16):
            value = 0
            for bit, masks in enumerate(PRESENT_SBOX_ANF):
                acc = 0
                for mask in masks:
                    term = 1
                    for position in range(4):
                        if (mask >> position) & 1:
                            term &= (x >> position) & 1
                    acc ^= term
                value |= acc << bit
            assert value == PRESENT_SBOX[x]


class TestKnownAnswers:
    @pytest.mark.parametrize("vector", PRESENT80_VECTORS)
    def test_official_vectors_80(self, vector):
        batch = BitslicedPresent(vector.key, key_bits=80)
        assert batch.encrypt_batch([vector.plaintext]) \
            == [vector.ciphertext]

    @pytest.mark.parametrize("vector", PRESENT128_VECTORS)
    def test_official_vectors_128(self, vector):
        batch = BitslicedPresent(vector.key, key_bits=128)
        assert batch.encrypt_batch([vector.plaintext]) \
            == [vector.ciphertext]

    def test_all_80bit_vectors_as_one_batch(self):
        by_key = {}
        for vector in PRESENT80_VECTORS:
            by_key.setdefault(vector.key, []).append(vector)
        for key, vectors in by_key.items():
            batch = BitslicedPresent(key, key_bits=80)
            assert batch.encrypt_batch([v.plaintext for v in vectors]) \
                == [v.ciphertext for v in vectors]


class TestBatchMatchesScalar:
    @settings(max_examples=20)
    @given(keys80, batches)
    def test_present80_encrypt_batch(self, key, plaintexts):
        scalar = Present(key, key_bits=80)
        assert BitslicedPresent(key, key_bits=80) \
            .encrypt_batch(plaintexts) \
            == [scalar.encrypt(p) for p in plaintexts]

    @settings(max_examples=10)
    @given(keys128, batches)
    def test_present128_encrypt_batch(self, key, plaintexts):
        scalar = Present(key, key_bits=128)
        assert BitslicedPresent(key, key_bits=128) \
            .encrypt_batch(plaintexts) \
            == [scalar.encrypt(p) for p in plaintexts]

    @settings(max_examples=15)
    @given(keys80, batches, st.integers(min_value=1, max_value=31))
    def test_reduced_round_victim(self, key, plaintexts, rounds):
        victim = TracedPresent(key, key_bits=80, rounds=rounds)
        assert BitslicedPresent(key, key_bits=80, rounds=rounds) \
            .encrypt_batch(plaintexts) \
            == [victim.encrypt(p) for p in plaintexts]


class TestTracedIndices:
    @settings(max_examples=20)
    @given(keys80, batches, st.integers(min_value=1, max_value=5))
    def test_sbox_indices_batch(self, key, plaintexts, max_rounds):
        victim = TracedPresent(key, key_bits=80)
        indices = BitslicedPresent(key, key_bits=80).sbox_indices_batch(
            plaintexts, max_rounds=max_rounds
        )
        assert indices.shape == (max_rounds, 16, len(plaintexts))
        for n, plaintext in enumerate(plaintexts):
            expected = victim.sbox_indices_by_round(plaintext, max_rounds)
            for round_index in range(max_rounds):
                assert list(indices[round_index, :, n]) \
                    == list(expected[round_index])

    @settings(max_examples=15)
    @given(keys80, batches, st.integers(min_value=1, max_value=31))
    def test_bounded_max_rounds_match_reduced_round_cipher(
            self, key, plaintexts, max_rounds):
        # A bounded max_rounds trace is the prefix of the full one and
        # the whole trace of the max_rounds-round cipher, whose
        # encrypt_batch (post-whitening included) is the scalar
        # reduced-round victim's.
        full = BitslicedPresent(key, key_bits=80)
        reduced = BitslicedPresent(key, key_bits=80, rounds=max_rounds)
        bounded = full.sbox_indices_batch(plaintexts, max_rounds=max_rounds)
        assert bounded.shape == (max_rounds, 16, len(plaintexts))
        assert (bounded == full.sbox_indices_batch(plaintexts)
                [:max_rounds]).all()
        assert (bounded == reduced.sbox_indices_batch(plaintexts)).all()
        victim = TracedPresent(key, key_bits=80, rounds=max_rounds)
        assert reduced.encrypt_batch(plaintexts) \
            == [victim.encrypt(p) for p in plaintexts]

    @settings(max_examples=10)
    @given(keys80, batches)
    def test_from_victim(self, key, plaintexts):
        victim = TracedPresent(key, key_bits=80)
        batch = BitslicedPresent.from_victim(victim)
        assert batch.key_bits == 80
        assert batch.encrypt_batch(plaintexts) \
            == [victim.encrypt(p) for p in plaintexts]


class TestEdges:
    def test_empty_batch(self):
        batch = BitslicedPresent(0, key_bits=80)
        assert batch.encrypt_batch([]) == []
        assert batch.sbox_indices_batch([], max_rounds=2).shape \
            == (2, 16, 0)

    def test_oversized_block_rejected(self):
        with pytest.raises(ValueError):
            BitslicedPresent(0, key_bits=80).encrypt_batch([1 << 64])

    def test_bad_key_bits_rejected(self):
        with pytest.raises(ValueError):
            BitslicedPresent(0, key_bits=96)

    def test_bad_rounds_rejected(self):
        with pytest.raises(ValueError):
            BitslicedPresent(0, key_bits=80, rounds=0)
        with pytest.raises(ValueError):
            BitslicedPresent(0, key_bits=80).sbox_indices_batch(
                [0], max_rounds=32
            )

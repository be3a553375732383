"""Protocol conformance: every registered target's victim, algebra and
crafting surface agree with its reference cipher."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.countermeasures import HardenedKeyScheduleGift64, ReshapedSboxGift64
from repro.targets import get_target, registered_targets

TARGETS = sorted(registered_targets())

#: Every registered target plus the key-schedule countermeasure, which
#: feeds its own masks into the same LUT engine.
LUT_VICTIMS = TARGETS + ["hardened-gift64"]

#: Known answers of ``encrypt_traced(KAT_PLAINTEXT, max_rounds=2)
#: .ciphertext`` under ``KAT_KEY``, both cut to each target's sizes.
KAT_KEY = 0x0123456789ABCDEF0123456789ABCDEF
KAT_PLAINTEXT = 0xFEDCBA9876543210FEDCBA9876543210
BOUNDED_TRACE_KAT = {
    "gift64": 0xE743F62D6AEF8883,
    "gift128": 0x843B11F9FD719915FA758C608606DB66,
    "giftcofb": 0x843B11F9FD719915FA758C608606DB66,
    "present80": 0x665895E9DD2C21B4,
}


def _lut_victim(name):
    """``(make_victim, key_bits, width)`` of one LUT-victim id."""
    if name == "hardened-gift64":
        return HardenedKeyScheduleGift64, 128, 64
    target = get_target(name)
    return target.make_victim, target.key_bits, target.width


def _planted_key(target, rng):
    return rng.getrandbits(target.key_bits)


def _scheduled_round_keys(target, master_key):
    """The attacked rounds' keys, straight from the cipher's schedule."""
    if target.name == "present80":
        from repro.present.cipher import Present

        return Present(master_key, key_bits=80) \
            .round_keys[:target.full_key_rounds]
    from repro.targets.gift import round_keys

    return round_keys(
        master_key, target.full_key_rounds, target.width
    )


class TestTracedVsUntraced:
    """The traced victim and the reference cipher are the same function
    — the property sweep the ISSUE requires for every registered
    target."""

    @pytest.mark.parametrize("name", TARGETS)
    @settings(max_examples=12)
    @given(data=st.data())
    def test_traced_equals_reference(self, name, data):
        target = get_target(name)
        key = data.draw(st.integers(0, (1 << target.key_bits) - 1))
        plaintext = data.draw(st.integers(0, (1 << target.width) - 1))
        victim = target.make_victim(key)
        assert victim.encrypt(plaintext) == \
            target.reference_encrypt(key, plaintext)

    @pytest.mark.parametrize("name", TARGETS)
    def test_trace_replays_the_encryption(self, name):
        target = get_target(name)
        rng = random.Random(hash(name) & 0xFFFF)
        key = _planted_key(target, rng)
        plaintext = rng.getrandbits(target.width)
        victim = target.make_victim(key)
        trace = victim.encrypt_traced(plaintext)
        assert trace.ciphertext == victim.encrypt(plaintext)
        assert trace.accesses

    @pytest.mark.parametrize("name", LUT_VICTIMS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_partial_round_trace_indices_match(self, name, data):
        """The fast-path indices equal the traced S-box loads at every
        round bound, for every victim built on the shared LUT engine."""
        make_victim, key_bits, width = _lut_victim(name)
        victim = make_victim(data.draw(st.integers(0, (1 << key_bits) - 1)))
        plaintext = data.draw(st.integers(0, (1 << width) - 1))
        max_rounds = data.draw(st.integers(1, victim.rounds))
        indices = victim.sbox_indices_by_round(plaintext, max_rounds)
        sbox_accesses = [
            a for a in victim.encrypt_traced(plaintext, max_rounds=max_rounds)
            .accesses if a.table == "sbox"
        ]
        assert len(indices) == max_rounds
        flat = [i for per_round in indices for i in per_round]
        assert [a.index for a in sbox_accesses] == flat

    @settings(max_examples=10, deadline=None)
    @given(key=st.integers(0, (1 << 128) - 1),
           plaintext=st.integers(0, (1 << 64) - 1))
    def test_reshaped_sbox_trace_replays_the_encryption(self, key,
                                                         plaintext):
        """The reshaped S-box tags ``index >> 1`` by design, so only its
        ciphertext is held to the fast path."""
        victim = ReshapedSboxGift64(key)
        assert victim.encrypt_traced(plaintext).ciphertext == \
            victim.encrypt(plaintext)

    @pytest.mark.parametrize("name", TARGETS)
    def test_bounded_trace_ciphertext_known_answer(self, name):
        """A bounded trace's ``ciphertext`` is the state after
        ``max_rounds`` rounds, without the final key mask."""
        target = get_target(name)
        key = KAT_KEY & ((1 << target.key_bits) - 1)
        plaintext = KAT_PLAINTEXT & ((1 << target.width) - 1)
        trace = target.make_victim(key).encrypt_traced(plaintext,
                                                       max_rounds=2)
        assert trace.ciphertext == BOUNDED_TRACE_KAT[name]


class TestKeyAlgebra:
    @pytest.mark.parametrize("name", TARGETS)
    def test_segment_bits_roundtrip(self, name):
        target = get_target(name)
        rng = random.Random(7)
        key = _planted_key(target, rng)
        round_key = target.verification_round_key([
            target.round_key_from_segment_bits([
                tuple(rng.getrandbits(1)
                      for _ in range(len(target.key_offsets)))
                for _ in range(target.segments)
            ])
            for _ in range(target.full_key_rounds)
        ])
        bits = [target.segment_key_bits(round_key, s)
                for s in range(target.segments)]
        assert target.round_key_from_segment_bits(bits) == round_key

    @pytest.mark.parametrize("name", TARGETS)
    def test_master_key_bit_positions_invert_the_schedule(self, name):
        """``assemble_master_key`` really does invert the key relation
        the positions describe: planting a key, reading the scheduled
        round keys back through ``segment_key_bits`` and reassembling
        must reproduce the planted key."""
        target = get_target(name)
        rng = random.Random(11)
        for _ in range(10):
            planted = _planted_key(target, rng)
            resolved = _scheduled_round_keys(target, planted)
            assembled = target.assemble_master_key(resolved)
            assert assembled == planted

    @pytest.mark.parametrize("name", TARGETS)
    def test_bits_per_round_matches_offsets(self, name):
        target = get_target(name)
        assert target.bits_per_round == \
            len(target.key_offsets) * target.segments


class TestCraftingSurface:
    @pytest.mark.parametrize("name", TARGETS)
    def test_inverse_permutation_is_a_bijection(self, name):
        target = get_target(name)
        perm = target.inverse_permutation()
        assert sorted(perm) == list(range(target.width))

    @pytest.mark.parametrize("name", TARGETS)
    def test_invert_rounds_with_no_priors_is_identity_or_direct(self, name):
        target = get_target(name)
        state = 0x0123456789ABCDEF & ((1 << target.width) - 1)
        assert isinstance(target.invert_rounds(state, []), int)

    @pytest.mark.parametrize("name", TARGETS)
    def test_constants_do_not_touch_key_offsets(self, name):
        """Round constants must never collide with the key bit offsets
        inside a segment the attack reads — the TargetSpec arithmetic
        assumes the two are disjoint."""
        target = get_target(name)
        for round_index in range(1, target.full_key_rounds + 2):
            mask = target.round_constant_mask(round_index)
            for segment in range(target.segments):
                nibble = (mask >> (4 * segment)) & 0xF
                for offset in target.key_offsets:
                    assert not (nibble >> offset) & 1

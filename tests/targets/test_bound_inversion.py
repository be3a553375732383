"""A crafter's bound inversion equals the historic per-round inversion.

:meth:`CipherTarget.bind_inversion` does the key-dependent work once per
crafter (GIFT pushes every round's key-and-constant mask through P⁻¹
and fuses S⁻¹ with P⁻¹ into one byte table).  These tests hold a
:class:`PlaintextCrafter` built on it to the plain per-round loops, at
every prior-key count a full-key attack uses, and check that its
plaintexts encrypt back to the drawn state without changing what it
draws from the attacker's RNG.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crafting import PlaintextCrafter
from repro.core.target_bits import set_target_bits
from repro.gift.keyschedule import round_keys
from repro.present.cipher import _key_schedule_80, _p_layer, _sbox_layer
from repro.targets import get_target

from ..core.test_crafting_stream import _reference_round_input
from .test_gift_inversion import _reference_invert


def _reference_present_invert(state, prior_round_keys):
    """PRESENT's historic inversion loop."""
    if not prior_round_keys:
        return state
    for round_index in range(len(prior_round_keys), 0, -1):
        state ^= prior_round_keys[round_index - 1]
        if round_index == 1:
            return state
        state = _sbox_layer(_p_layer(state, inverse=True), inverse=True)
    raise AssertionError("unreachable")


def _prior_keys(target, key, count):
    if target.name == "present80":
        return _key_schedule_80(key)[:count]
    return round_keys(key, count, width=target.width)


def _reference(target, state, prior):
    if target.name == "present80":
        return _reference_present_invert(state, prior)
    return _reference_invert(state, prior, target.width)


def _encrypt_back(target, key, plaintext, count):
    """The constrained state a plaintext reaches after ``count`` prior
    rounds: GIFT's round-``count`` output, PRESENT's round-``count``
    S-layer input (round ``count - 1``'s output XOR ``K_count``)."""
    if count == 0:
        return plaintext
    if target.name == "present80":
        return target.reference_encrypt(key, plaintext, rounds=count - 1)
    return target.reference_encrypt(key, plaintext, rounds=count)


#: Every (target, prior-key count) a full-key attack crafts for: round
#: 1 up to the verification round.
CASES = [
    (name, count)
    for name in ("gift64", "gift128", "present80")
    for count in range(get_target(name).full_key_rounds + 1)
]


@pytest.mark.parametrize("name,count", CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_crafter_matches_the_per_round_inversion(name, count, data, seed):
    target = get_target(name)
    key = data.draw(st.integers(0, (1 << target.key_bits) - 1))
    segment = data.draw(st.integers(0, target.segments - 1))
    spec = set_target_bits(count + 1, segment, target=target)
    prior = _prior_keys(target, key, count)
    crafted = random.Random(seed)
    drawn = random.Random(seed)
    crafter = PlaintextCrafter(spec, prior, crafted)
    for _ in range(4):
        state = _reference_round_input(spec, drawn)
        plaintext = crafter.craft()
        assert plaintext == _reference(target, state, prior)
        assert _encrypt_back(target, key, plaintext, count) == state
        assert target.invert_rounds(state, prior) == plaintext
    assert crafted.getstate() == drawn.getstate()


def test_crafter_prior_keys_are_immutable():
    """The inversion is bound to the keys at construction, so the
    crafter shows them as a tuple: an edit that the bound inversion
    would silently ignore cannot be made."""
    target = get_target("gift64")
    prior = round_keys(0x0123456789ABCDEF0123456789ABCDEF, 2, width=64)
    crafter = PlaintextCrafter(set_target_bits(3, 5, target=target), prior,
                               random.Random(0))
    assert crafter.prior_round_keys == tuple(prior)
    with pytest.raises(TypeError):
        crafter.prior_round_keys[0] = (0, 0)
    prior[0] = (0, 0)
    reference = random.Random(0)
    assert crafter.craft() == _reference_invert(
        _reference_round_input(crafter.spec, reference),
        crafter.prior_round_keys, 64,
    )

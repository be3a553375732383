"""GIFT's byte-sliced round inversion equals the bit-level reference.

:meth:`GiftTarget.invert_rounds` runs P⁻¹ and S⁻¹ through 256-entry
byte tables.  The reference here is the plain inverse round, one
``permute`` and one ``sub_cells(inverse=True)`` per round; the
forward check encrypts the inverted plaintext through the same rounds
with the traced LUT cipher.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gift.cipher import round_key_mask, sub_cells
from repro.gift.constants import constant_mask
from repro.gift.keyschedule import round_keys
from repro.gift.lut import TracedGiftCipher
from repro.gift.permutation import inverse_permutation_for_width, permute
from repro.targets import get_target

keys = st.integers(min_value=0, max_value=(1 << 128) - 1)
widths = st.sampled_from([64, 128])


def _reference_invert(state, prior_round_keys, width):
    inverse_perm = inverse_permutation_for_width(width)
    for round_index in range(len(prior_round_keys), 0, -1):
        u, v = prior_round_keys[round_index - 1]
        state ^= round_key_mask(u, v, width)
        state ^= constant_mask(round_index, width)
        state = sub_cells(permute(state, inverse_perm), width, inverse=True)
    return state


@settings(max_examples=60)
@given(widths, keys, st.data(), st.integers(min_value=0, max_value=4))
def test_invert_rounds_matches_reference_and_encrypts_back(width, key, data,
                                                           rounds):
    state = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    prior = round_keys(key, rounds, width=width)
    plaintext = get_target(f"gift{width}").invert_rounds(state, prior)
    assert plaintext == _reference_invert(state, prior, width)
    if rounds:
        cipher = TracedGiftCipher(key, width=width, rounds=rounds)
        assert cipher.encrypt(plaintext) == state
    else:
        assert plaintext == state


def test_single_bit_states_match_reference():
    """One-bit states isolate the single-bit entries each P⁻¹ byte
    table is built from."""
    for width in (64, 128):
        target = get_target(f"gift{width}")
        prior = round_keys(0x0123456789ABCDEF0123456789ABCDEF, 2,
                           width=width)
        for bit in range(width):
            state = 1 << bit
            assert (target.invert_rounds(state, prior)
                    == _reference_invert(state, prior, width))

"""The table-driven crafter consumes the attacker RNG draw for draw.

Every seeded attack, the 464-encryption pin and the recorded trace
corpus depend on crafting drawing exactly what the historic loop drew:
``rng.choice(valid)`` for a pinned segment, ``rng.randrange(16)`` for
any other.  The crafter replaces those calls with its own
``getrandbits`` rejection loop, which equals CPython's
``Random._randbelow``; these tests hold it to that on every interpreter
the suite runs on, for every registered target.
"""

import random

import pytest

from repro.core.crafting import PlaintextCrafter, build_target_round_input
from repro.core.target_bits import set_target_bits
from repro.targets import get_target, target_names

SEEDS = range(40)


def _reference_round_input(spec, rng):
    """The historic Algorithm-2 draw loop."""
    state = 0
    for segment in range(spec.width // 4):
        if segment in spec.valid_inputs:
            nibble = rng.choice(spec.valid_inputs[segment])
        else:
            nibble = rng.randrange(16)
        state |= nibble << (4 * segment)
    return state


def _specs(target):
    rounds = list(range(1, target.full_key_rounds + 1))
    rounds.append(target.verification_round)
    for round_index in rounds:
        for segment in range(target.segments):
            yield set_target_bits(round_index, segment, target=target)


def _random_prior_keys(target, count, rng):
    width = len(target.key_offsets)
    return [
        target.round_key_from_segment_bits([
            tuple(rng.getrandbits(1) for _ in range(width))
            for _ in range(target.segments)
        ])
        for _ in range(count)
    ]


@pytest.mark.parametrize("name", target_names())
class TestCraftingStream:
    def test_round_input_matches_the_reference_draws(self, name):
        target = get_target(name)
        for spec in _specs(target):
            for seed in SEEDS:
                fast = random.Random(seed)
                slow = random.Random(seed)
                for _ in range(3):
                    assert (build_target_round_input(spec, fast)
                            == _reference_round_input(spec, slow))
                assert fast.getstate() == slow.getstate()

    def test_crafter_matches_the_reference_draws(self, name):
        target = get_target(name)
        key_rng = random.Random(f"{name}-prior-keys")
        for spec in _specs(target):
            prior = _random_prior_keys(target, spec.round_index - 1,
                                       key_rng)
            for seed in SEEDS[:8]:
                fast = random.Random(seed)
                slow = random.Random(seed)
                crafter = PlaintextCrafter(spec, prior, fast)
                for _ in range(3):
                    expected = target.invert_rounds(
                        _reference_round_input(spec, slow), prior
                    )
                    assert crafter.craft() == expected
                assert fast.getstate() == slow.getstate()

"""GRINCH ported to PRESENT-80: the tentpole's first proof obligation.

PRESENT adds the round key *before* the S-box layer
(``probe_round_offset = 0``, ``first_round_direct``), has four key bits
per S-box index (no free offsets), and couples K3 to the still-ambiguous
K2 through the rotating key schedule — every axis on which it differs
from GIFT exercises a protocol seam.
"""

import random

import pytest

from repro.cache.geometry import CacheGeometry
from repro.core import AttackConfig, GrinchAttack, InconsistentObservation
from repro.seeding import derive_key
from repro.staticcheck import declassify
from repro.targets import get_target


def _attack(seed, **config_kwargs):
    target = get_target("present80")
    planted = derive_key(80, seed)
    config = AttackConfig(seed=seed, **config_kwargs)
    victim = target.make_victim(planted, layout=config.layout)
    return planted, GrinchAttack(victim, config)


class TestFirstRound:
    def test_first_round_recovers_all_64_bits(self):
        _, attack = _attack(1)
        first = attack.attack_first_round()
        assert first.recovered_bits == 64

    def test_round_one_needs_no_crafting(self):
        """``first_round_direct``: the round-1 target spec has no source
        cone, because the key meets the plaintext before any S-box."""
        from repro.core.target_bits import set_target_bits

        target = get_target("present80")
        spec = set_target_bits(1, 3, target=target)
        assert spec.sources == ()


class TestFullKey:
    @pytest.mark.parametrize("seed", range(4))
    def test_recovers_the_planted_80_bit_key(self, seed):
        planted, attack = _attack(seed)
        result = attack.recover_master_key()
        assert declassify(result.master_key) == planted
        assert result.verified

    def test_recovery_at_later_probing_rounds(self):
        planted, attack = _attack(2, probing_round=2)
        result = attack.recover_master_key()
        assert declassify(result.master_key) == planted

    def test_wide_lines_leave_offset0_nibbles_ambiguous(self):
        """The documented structural limit: PRESENT's P-layer sends all
        four output bits of round-1 nibble ``q`` to index-bit offset
        ``q % 4``, so 2-word lines make nibbles 0/4/8/12 unobservable
        through round 2 and the full-key assembly cannot finish — a
        typed failure that names the unresolved round."""
        planted, attack = _attack(
            3, geometry=CacheGeometry(line_words=2)
        )
        with pytest.raises(InconsistentObservation,
                           match="round-1 key with .* candidates"):
            attack.recover_master_key()


class TestKeySchedule:
    def test_k2_segment15_is_nonlinear_in_the_master_key(self):
        """K2's top nibble passes through the S-box inside the schedule;
        the target's assembly must invert it rather than read bits."""
        from repro.present.cipher import PRESENT_SBOX, Present

        rng = random.Random(9)
        for _ in range(20):
            master = rng.getrandbits(80)
            k2 = Present(master, key_bits=80).round_keys[1]
            assert (k2 >> 60) & 0xF == PRESENT_SBOX[(master >> 15) & 0xF]

"""Per-primitive seeded smoke tests: every L1 primitive drives the
full attack machinery end to end.

The fast tests recover the round-1 key bits (seconds each); the
``slow``-marked tests run full 128-bit recoveries through the
non-default primitives.
"""

import pytest

from repro.core.attack import GrinchAttack
from repro.core.config import AttackConfig
from repro.gift.keyschedule import round_keys
from repro.gift.lut import TracedGift64
from repro.seeding import derive_key


def _attack(seed, **overrides):
    planted = derive_key(128, seed)
    victim = TracedGift64(planted)
    config = AttackConfig(seed=seed, max_total_encryptions=None,
                          **overrides)
    return planted, GrinchAttack(victim, config)


class TestFirstRoundSmoke:
    def test_flush_reload(self):
        planted, attack = _attack(31)
        outcome = attack.attack_first_round()
        assert outcome.recovered_bits == 32
        assert outcome.outcome.estimate.as_round_key() == \
            round_keys(planted, 1, width=64)[0]

    def test_prime_probe(self):
        planted, attack = _attack(
            32, probe_strategy="prime_probe"
        )
        outcome = attack.attack_first_round()
        assert outcome.recovered_bits == 32
        assert outcome.outcome.estimate.as_round_key() == \
            round_keys(planted, 1, width=64)[0]

    def test_flush_flush_noiseless(self):
        """With a perfect readout, Flush+Flush is an exact reload-free
        Flush+Reload — same recovery, strict intersection."""
        planted, attack = _attack(
            33, probe_strategy="flush_flush",
            flush_flush_miss_probability=0.0,
        )
        assert attack.runner.is_lossless
        outcome = attack.attack_first_round()
        assert outcome.recovered_bits == 32
        assert outcome.outcome.estimate.as_round_key() == \
            round_keys(planted, 1, width=64)[0]

    def test_flush_flush_noisy_votes(self):
        """The default noisy readout flips recovery to voting and still
        converges on the round-1 key."""
        planted, attack = _attack(
            34, probe_strategy="flush_flush",
            flush_flush_miss_probability=0.02,
            voting_min_observations=8,
        )
        assert not attack.runner.is_lossless
        outcome = attack.attack_first_round()
        assert outcome.recovered_bits == 32
        assert outcome.outcome.estimate.as_round_key() == \
            round_keys(planted, 1, width=64)[0]


@pytest.mark.slow
class TestFullKeySmoke:
    def test_flush_flush_full_key(self):
        planted, attack = _attack(
            35, probe_strategy="flush_flush",
            flush_flush_miss_probability=0.02,
            voting_min_observations=8,
        )
        result = attack.recover_master_key()
        assert result.master_key == planted

    def test_prime_probe_full_key(self):
        planted, attack = _attack(
            36, probe_strategy="prime_probe"
        )
        result = attack.recover_master_key()
        assert result.master_key == planted

    def test_flush_flush_cross_core(self):
        """Flush+Flush is clflush-based, so it must also work through
        the cross-core shared-L2 transport."""
        from repro.cache.multilevel import InclusionPolicy
        from repro.core.crosscore import make_cross_core_runner

        planted = derive_key(128, 37)
        victim = TracedGift64(planted)
        config = AttackConfig(
            seed=37, probe_strategy="flush_flush",
            flush_flush_miss_probability=0.02,
            voting_min_observations=8,
            max_total_encryptions=None,
        )
        runner = make_cross_core_runner(victim, config,
                                        InclusionPolicy.INCLUSIVE)
        result = GrinchAttack(victim, config, runner=runner) \
            .recover_master_key()
        assert result.master_key == planted

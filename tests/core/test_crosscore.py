"""Tests for the cross-core (shared-L2) attack — the paper's future work."""

import random

import pytest

from repro.cache.multilevel import InclusionPolicy, TwoLevelHierarchy
from repro.channel.transport import SharedL2Transport
from repro.core.attack import GrinchAttack
from repro.core.config import AttackConfig
from repro.core.crosscore import make_cross_core_runner
from repro.core.errors import AttackError
from repro.gift.lut import TracedGift64
from repro.seeding import derive_key


@pytest.fixture
def planted():
    key = random.Random(0xCAFE).getrandbits(128)
    return TracedGift64(key), key


class TestInclusiveHierarchy:
    def test_full_recovery_through_shared_l2(self, planted):
        """With an inclusive LLC the hierarchy does not protect GIFT:
        the cross-core attacker recovers the full key."""
        victim, key = planted
        config = AttackConfig(seed=3, max_total_encryptions=None)
        runner = make_cross_core_runner(
            victim, config, InclusionPolicy.INCLUSIVE
        )
        result = GrinchAttack(victim, config, runner=runner) \
            .recover_master_key()
        assert result.master_key == key

    def test_effort_comparable_to_single_level(self, planted):
        """The clflush reset makes the cross-core channel as clean as
        the same-core one."""
        victim, _ = planted
        config = AttackConfig(seed=4, max_total_encryptions=None)
        runner = make_cross_core_runner(
            victim, config, InclusionPolicy.INCLUSIVE
        )
        cross = GrinchAttack(victim, config, runner=runner) \
            .attack_first_round().encryptions
        same = GrinchAttack(victim, config).attack_first_round().encryptions
        assert cross < 4 * same

    def test_observation_matches_l2_contents(self, planted):
        victim, _ = planted
        config = AttackConfig(seed=5)
        runner = make_cross_core_runner(
            victim, config, InclusionPolicy.INCLUSIVE
        )
        observed = runner.observe(0x123456789ABCDEF0, 1)
        # Exactly the round-2 lines (flush removed round 1).
        round2 = victim.sbox_indices_by_round(0x123456789ABCDEF0, 2)[1]
        expected = {runner.monitor.line_for_index(i) for i in round2}
        assert observed == expected


class TestExclusiveHierarchy:
    def test_blinds_the_attack(self, planted):
        """With an exclusive LLC the S-box never leaves the victim's
        private L1, so the shared level carries (almost) nothing — the
        hierarchy acts as a countermeasure."""
        victim, _ = planted
        config = AttackConfig(seed=6, max_encryptions_per_segment=500,
                              max_total_encryptions=None)
        runner = make_cross_core_runner(
            victim, config, InclusionPolicy.EXCLUSIVE
        )
        attack = GrinchAttack(victim, config, runner=runner)
        with pytest.raises(AttackError):
            attack.recover_master_key()

    def test_only_eviction_spills_surface(self, planted):
        """An exclusive L2 sees a line only when L1 pressure (here: the
        PermBits table) evicts it — a trickle compared to the inclusive
        hierarchy's full footprint, and crucially not guaranteed to
        include the pinned target line, which is what breaks the
        intersection."""
        victim, _ = planted
        rng = random.Random(1)
        plaintexts = [rng.getrandbits(64) for _ in range(30)]
        totals = {}
        for inclusion in (InclusionPolicy.EXCLUSIVE,
                          InclusionPolicy.INCLUSIVE):
            runner = make_cross_core_runner(
                victim, AttackConfig(seed=7), inclusion
            )
            totals[inclusion] = sum(
                len(runner.observe(p, 1)) for p in plaintexts
            )
        assert totals[InclusionPolicy.EXCLUSIVE] * 4 < \
            totals[InclusionPolicy.INCLUSIVE]


class TestInclusionArgument:
    """``inclusion`` accepts the enum or its string value; anything else
    raises instead of building a hierarchy that is neither mode."""

    @staticmethod
    def _first_round(inclusion):
        victim = TracedGift64(derive_key(128, 0))
        config = AttackConfig(seed=0, max_total_encryptions=None)
        runner = make_cross_core_runner(victim, config, inclusion)
        return GrinchAttack(victim, config, runner=runner) \
            .attack_first_round().encryptions

    def test_string_matches_enum(self):
        assert self._first_round(InclusionPolicy.INCLUSIVE) == 116
        assert self._first_round("inclusive") == 116
        assert TwoLevelHierarchy(inclusion="exclusive").inclusion \
            is InclusionPolicy.EXCLUSIVE

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            TwoLevelHierarchy(inclusion="bogus")


class TestRunnerContracts:
    def test_rejects_prime_probe(self, planted):
        # A cross-core attacker is clflush-based; the channel refuses a
        # primitive that needs same-cache contention.
        victim, _ = planted
        with pytest.raises(ValueError, match="same-cache contention"):
            make_cross_core_runner(
                victim, AttackConfig(probe_strategy="prime_probe"),
                InclusionPolicy.INCLUSIVE,
            )

    def test_rejects_single_core_hierarchy(self):
        with pytest.raises(ValueError, match="at least two cores"):
            SharedL2Transport(TwoLevelHierarchy(cores=1))

    def test_known_pair_channel(self, planted):
        victim, _ = planted
        config = AttackConfig(seed=8)
        runner = make_cross_core_runner(
            victim, config, InclusionPolicy.INCLUSIVE
        )
        assert runner.known_pair(0x42) == victim.encrypt(0x42)

"""L4 tests: ObservationChannel composition, path equivalence, and the
seed-0 effort invariant the refactor promised to preserve."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.channel import (
    LOSSLESS,
    FlushReload,
    LossyChannel,
    MemoryLatencies,
    ObservationChannel,
    ProbeJitter,
    SboxMonitor,
    SharedL2Transport,
    SingleLevelTransport,
)
from repro.core.attack import GrinchAttack
from repro.core.config import AttackConfig
from repro.gift.lut import TracedGift64
from repro.seeding import derive_key

plaintexts = st.integers(min_value=0, max_value=(1 << 64) - 1)


def _pair(victim, primitive, **overrides):
    """A (fast, full) channel pair with identical RNG streams."""
    fast = ObservationChannel(victim, AttackConfig(
        probe_strategy=primitive, use_fast_path=True, seed=5, **overrides
    ))
    full = ObservationChannel(victim, AttackConfig(
        probe_strategy=primitive, use_fast_path=False, seed=5, **overrides
    ))
    return fast, full


class TestPathEquivalence:
    """Fast analytic path == full simulation, for every primitive."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plaintexts, st.integers(min_value=1, max_value=4))
    def test_flush_reload_paths_agree(self, plaintext, attacked_round):
        victim = TracedGift64(derive_key(128, 21))
        fast, full = _pair(victim, "flush_reload")
        assert fast.fast_path_active and not full.fast_path_active
        assert fast.observe(plaintext, attacked_round) == \
            full.observe(plaintext, attacked_round)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plaintexts, st.integers(min_value=1, max_value=4))
    def test_flush_flush_paths_agree(self, plaintext, attacked_round):
        """Holds even with a noisy readout: filter_observation applies
        to both paths, and identical pre-filter sets consume identical
        draws from the primitive stream."""
        victim = TracedGift64(derive_key(128, 22))
        fast, full = _pair(victim, "flush_flush",
                           flush_flush_miss_probability=0.1)
        assert fast.fast_path_active and not full.fast_path_active
        assert fast.observe(plaintext, attacked_round) == \
            full.observe(plaintext, attacked_round)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plaintexts)
    def test_prime_probe_ignores_fast_path_flag(self, plaintext):
        """Prime+Probe can never take the analytic path; asking for it
        must be a safe no-op, not a silent wrong answer."""
        victim = TracedGift64(derive_key(128, 23))
        fast, full = _pair(victim, "prime_probe", stall_window=200)
        assert not fast.fast_path_active and not full.fast_path_active
        assert fast.observe(plaintext, 1) == full.observe(plaintext, 1)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plaintexts)
    def test_lossy_decorated_channel_at_zero_loss_agrees(self, plaintext):
        """A LossyChannel decorator with miss_probability=0 must be an
        exact no-op on both paths (the degradation draws nothing)."""
        victim = TracedGift64(derive_key(128, 24))
        fast, full = _pair(victim, "flush_reload",
                           loss=LossyChannel(miss_probability=0.0))
        plain_fast, _ = _pair(victim, "flush_reload")
        assert fast.is_lossless
        assert fast.observe(plaintext, 1) == full.observe(plaintext, 1)
        assert fast.observe(plaintext, 1) == plain_fast.observe(plaintext, 1)


class TestComposition:
    def test_default_stack(self, victim):
        channel = ObservationChannel(victim, AttackConfig(seed=1))
        assert isinstance(channel.transport, SingleLevelTransport)
        assert isinstance(channel.primitive, FlushReload)
        assert channel.degradations == (LOSSLESS,)
        assert channel.is_lossless
        assert channel.signal_reliability == 1.0
        assert channel.mid_flush_supported

    def test_explicit_layers_compose(self, victim):
        config = AttackConfig(seed=2)
        monitor = SboxMonitor.build(victim.layout, config.geometry)
        channel = ObservationChannel(
            victim, config,
            transport=SingleLevelTransport(config.geometry),
            primitive=FlushReload(monitor),
            degradations=(LossyChannel(miss_probability=0.2),
                          ProbeJitter(offsets=(0, 1),
                                      weights=(0.5, 0.5))),
        )
        assert not channel.is_lossless
        observed = channel.observe(0x0123456789ABCDEF, 1)
        assert observed <= channel.monitor.universe

    def test_prime_probe_rejected_on_cross_core_transport(self, victim):
        config = AttackConfig(probe_strategy="prime_probe", seed=3)
        with pytest.raises(ValueError, match="same-cache contention"):
            ObservationChannel(victim, config,
                               transport=SharedL2Transport())

    def test_mismatched_transport_geometry_rejected(self, victim):
        config = AttackConfig(
            geometry=CacheGeometry(line_words=8), seed=3
        )
        with pytest.raises(ValueError, match="line size"):
            ObservationChannel(victim, config,
                               transport=SharedL2Transport())

    def test_stacked_degradations_apply_in_order(self, victim):
        """Two lossy decorators drop more than either alone (statistically,
        at p high enough to be certain over the run)."""
        config = AttackConfig(seed=4)
        heavy = ObservationChannel(
            victim, config,
            degradations=(LossyChannel(miss_probability=0.9),
                          LossyChannel(miss_probability=0.9)),
        )
        light = ObservationChannel(victim, AttackConfig(seed=4))
        rng = random.Random(0)
        heavy_total = light_total = 0
        for _ in range(10):
            plaintext = rng.getrandbits(64)
            heavy_total += len(heavy.observe(plaintext, 1))
            light_total += len(light.observe(plaintext, 1))
        assert heavy_total < light_total

    def test_observe_encryption_alias(self, victim):
        a = ObservationChannel(victim, AttackConfig(seed=6))
        b = ObservationChannel(victim, AttackConfig(seed=6))
        assert a.observe(0x42, 1) == b.observe_encryption(0x42, 1)


class TestEffortInvariant:
    def test_seed0_full_key_takes_exactly_464_encryptions(self):
        """The refactor's bit-identical-RNG contract, pinned: the
        seed-0 GIFT-64 Flush+Reload full-key recovery costs exactly the
        same 464 encryptions it did before the channel stack existed."""
        victim = TracedGift64(derive_key(128, 0))
        result = GrinchAttack(victim, AttackConfig(seed=0)) \
            .recover_master_key()
        assert result.master_key == derive_key(128, 0)
        assert result.total_encryptions == 464


class TestMemoryLatencies:
    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            MemoryLatencies(l1_hit_cycles=-1)

"""The channel's batch surface: observe_batch and its gating.

Three invariants anchor the batch path to the historic scalar channel:

* on a lossless (and even a noisy) channel, ``observe_batch`` is
  observation-for-observation identical to looping ``observe`` on a
  fresh channel — the noise stream is consumed per window in scalar
  order on both paths;
* on a lossy channel, the batch degradations are deterministic at ANY
  batch split — ``drop_lines_batch`` draws one C-order matrix per call
  on the dedicated ``"-loss-batch"`` stream, so window ``k`` always
  gets row ``k``'s randomness;
* the capability gate falls back to the exact scalar loop only where
  the batch path cannot apply (no fast path, jittered windows); every
  victim, window length and readout the fast path serves — replay and
  COFB victims, windows past ``safe_rounds``, noisy Flush+Flush —
  takes the batch path.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.channel.degradation import LossyChannel, ProbeJitter, NoiseModel
from repro.channel.observer import ObservationChannel
from repro.core.config import AttackConfig
from repro.engine.replay import config_from_header
from repro.seeding import derive_key, derive_rng
from repro.targets.gift import TracedGift64, TracedGift128
from repro.targets.giftcofb import CofbNonceVictim
from repro.trace import ReplayVictim, read_binary

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _plaintexts(count, label="channel-batch"):
    rng = derive_rng(label, 0)
    return [rng.getrandbits(64) for _ in range(count)]


def _channel(config, key_seed=0):
    victim = TracedGift64(derive_key(128, key_seed))
    return ObservationChannel(victim, config)


def _replay_case():
    """Fresh channels over the seed-0 GIFT-64 corpus recording, and the
    plaintexts of its first round-1 windows (replay checks them)."""
    trace = read_binary(CORPUS / "gift64-seed0-full.grtr")
    config = config_from_header(trace.header)
    plaintexts = [record.plaintext for record in trace.records[:8]]
    return (lambda: ObservationChannel(ReplayVictim(trace), config),
            plaintexts, (1,))


def _live_case(make_victim, **overrides):
    victim = make_victim(derive_key(128, 9))
    config = AttackConfig(seed=9, **overrides)
    rng = derive_rng("batch-cases", 9)
    plaintexts = [rng.getrandbits(victim.width) for _ in range(10)]
    return (lambda: ObservationChannel(victim, config), plaintexts,
            (1, 2, 3))


#: Victims and readouts the batch path once left to the scalar loop.
CASES = {
    "replay": _replay_case,
    "cofb": lambda: _live_case(CofbNonceVictim),
    # safe_rounds == 0: every window goes through the LRU readout.
    "gift128-1word": lambda: _live_case(
        TracedGift128, geometry=CacheGeometry(line_words=1)
    ),
    "unflushed": lambda: _live_case(TracedGift64, use_flush=False),
    "noisy-flush-flush": lambda: _live_case(
        TracedGift64, probe_strategy="flush_flush",
        flush_flush_miss_probability=0.1,
    ),
}


class TestGating:
    def test_active_on_the_reference_setup(self):
        channel = _channel(AttackConfig(seed=0))
        assert channel.fast_path_active
        assert channel.batch_path_active

    def test_active_with_batch_aware_loss(self):
        channel = _channel(AttackConfig(
            seed=0, loss=LossyChannel(miss_probability=0.2)
        ))
        assert channel.batch_path_active

    def test_inactive_for_prime_probe(self):
        channel = _channel(AttackConfig(
            seed=0, probe_strategy="prime_probe"
        ))
        assert not channel.batch_path_active

    def test_inactive_under_jitter(self):
        channel = _channel(AttackConfig(
            seed=0,
            loss=LossyChannel(jitter=ProbeJitter(offsets=(-1, 0, 1),
                                                 weights=(0.2, 0.6, 0.2))),
        ))
        assert channel.fast_path_active
        assert not channel.batch_path_active

    def test_active_for_noisy_flush_flush_readout(self):
        # The readout filter runs per window in scalar order, so the
        # primitive's stream is drawn as the scalar loop draws it
        # (TestLosslessEquivalence checks the observations).
        make_channel, _, _ = CASES["noisy-flush-flush"]()
        assert make_channel().batch_path_active

    def test_active_for_replay_victims(self):
        # Replay answers one window per plaintext in order, whether the
        # scalar loop or the batch loop asks.
        make_channel, _, _ = CASES["replay"]()
        assert make_channel().batch_path_active

    def test_fallback_still_answers(self):
        # An inactive batch path must still serve observe_batch via the
        # scalar loop, bit-identical to fresh scalar observes.
        config = AttackConfig(seed=0, probe_strategy="prime_probe")
        plaintexts = _plaintexts(5)
        batched = _channel(config).observe_batch(plaintexts, 1)
        scalar_channel = _channel(config)
        assert batched == [scalar_channel.observe(p, 1)
                           for p in plaintexts]


class TestLosslessEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=1, max_value=9))
    def test_matches_scalar_observes(self, seed, count):
        config = AttackConfig(seed=seed)
        rng = derive_rng("observe-batch-plaintexts", seed)
        plaintexts = [rng.getrandbits(64) for _ in range(count)]
        batch_channel = _channel(config)
        assert batch_channel.batch_path_active
        batched = batch_channel.observe_batch(plaintexts, 1)
        scalar_channel = _channel(config)
        assert batched == [scalar_channel.observe(p, 1)
                           for p in plaintexts]
        assert batch_channel.encryptions_run \
            == scalar_channel.encryptions_run == count

    def test_matches_under_ambient_noise(self):
        # The noise stream is drawn per window in scalar order on the
        # batch path too, so even a noisy environment stays identical.
        config = AttackConfig(
            seed=7, noise=NoiseModel(touch_probability=0.5,
                                     monitored_touches=2),
        )
        plaintexts = _plaintexts(16)
        batched = _channel(config).observe_batch(plaintexts, 1)
        scalar_channel = _channel(config)
        assert batched == [scalar_channel.observe(p, 1)
                           for p in plaintexts]

    def test_deeper_attacked_round(self):
        config = AttackConfig(seed=3)
        plaintexts = _plaintexts(6)
        batched = _channel(config).observe_batch(plaintexts, 4)
        scalar_channel = _channel(config)
        assert batched == [scalar_channel.observe(p, 4)
                           for p in plaintexts]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_scalar_loop_on(self, case):
        make_channel, plaintexts, rounds = CASES[case]()
        batched = make_channel()
        assert batched.batch_path_active
        scalar = make_channel()
        for attacked_round in rounds:
            assert batched.observe_batch(plaintexts, attacked_round) == [
                scalar.observe(p, attacked_round) for p in plaintexts
            ]
        assert batched.encryptions_run == scalar.encryptions_run

    def test_empty_batch(self):
        channel = _channel(AttackConfig(seed=0))
        assert channel.observe_batch([], 1) == []
        assert channel.encryptions_run == 0

    def test_bad_round_rejected(self):
        with pytest.raises(ValueError):
            _channel(AttackConfig(seed=0)).observe_batch([0], 0)


class TestLossyDeterminism:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 16),
           st.lists(st.integers(min_value=1, max_value=6),
                    min_size=1, max_size=5))
    def test_any_batch_split_is_identical(self, seed, sizes):
        """Splitting one window sequence into arbitrary batch sizes
        consumes the dedicated loss stream identically."""
        config = AttackConfig(
            seed=seed,
            loss=LossyChannel(miss_probability=0.25, eviction_rate=0.1),
        )
        total = sum(sizes)
        plaintexts = _plaintexts(total, label="lossy-split")
        whole = _channel(config).observe_batch(plaintexts, 1)
        split_channel = _channel(config)
        assert split_channel.batch_path_active
        split = []
        cursor = 0
        for size in sizes:
            split.extend(split_channel.observe_batch(
                plaintexts[cursor:cursor + size], 1
            ))
            cursor += size
        assert split == whole

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 16),
           st.integers(min_value=0, max_value=8))
    def test_long_windows_split_on_the_batch_stream(self, seed, cut):
        """Unflushed round-2 windows (rounds 1..3) run the LRU readout:
        their losses come from the batch stream at any split, and the
        scalar loss stream stays untouched."""
        config = AttackConfig(
            seed=seed, use_flush=False,
            loss=LossyChannel(miss_probability=0.25, eviction_rate=0.1),
        )
        plaintexts = _plaintexts(8, label="lossy-long-window")
        whole = _channel(config).observe_batch(plaintexts, 2)
        split_channel = _channel(config)
        assert split_channel.batch_path_active
        split = split_channel.observe_batch(plaintexts[:cut], 2) \
            + split_channel.observe_batch(plaintexts[cut:], 2)
        assert split == whole
        pure = _channel(config)
        assert [split_channel.observe(p, 2) for p in plaintexts] \
            == [pure.observe(p, 2) for p in plaintexts]

    def test_scalar_loss_stream_untouched_by_batch_calls(self):
        # A batch call must never consume the scalar "-loss" stream:
        # interleaving batch calls cannot change later scalar draws.
        config = AttackConfig(seed=5,
                              loss=LossyChannel(miss_probability=0.3))
        plaintexts = _plaintexts(8, label="loss-interleave")
        pure = _channel(config)
        expected = [pure.observe(p, 1) for p in plaintexts[:4]]
        mixed = _channel(config)
        mixed.observe_batch(plaintexts[4:], 1)
        assert [mixed.observe(p, 1) for p in plaintexts[:4]] == expected


class TestDropLinesBatchStream:
    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=2 ** 16),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=11))
    def test_split_invariance_on_raw_windows(self, seed, count, cut):
        import numpy

        from repro.seeding import derive_seed

        cut = min(cut, count)
        loss = LossyChannel(miss_probability=0.3, eviction_rate=0.2)
        lines = list(range(4))
        rng = derive_rng("drop-batch-windows", seed)
        windows = [
            frozenset(line for line in lines if rng.random() < 0.7)
            for _ in range(count)
        ]

        def fresh():
            return numpy.random.default_rng(
                derive_seed("drop-batch-test", seed)
            )

        whole = loss.drop_lines_batch(windows, lines, fresh())
        generator = fresh()
        split = loss.drop_lines_batch(windows[:cut], lines, generator) \
            + loss.drop_lines_batch(windows[cut:], lines, generator)
        assert split == whole
        for original, degraded in zip(windows, whole):
            assert degraded <= original

    def test_draws_per_window_is_fixed(self):
        loss = LossyChannel(miss_probability=0.5)
        assert loss.batch_draws_per_window(4) == 6


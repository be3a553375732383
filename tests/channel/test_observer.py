"""L4 tests: ObservationChannel composition, path equivalence, and the
seed-0 effort invariant the refactor promised to preserve."""

import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import SetAssociativeCache
from repro.channel import (
    LOSSLESS,
    EvictionModel,
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
from repro.countermeasures import (
    HardenedKeyScheduleGift64,
    ReshapedSboxGift64,
)
from repro.gift.lut import TracedGift64, TracedGift128
from repro.present.lut import TracedPresent
from repro.seeding import derive_key
from repro.targets.giftcofb import CofbNonceVictim
from repro.targets.lut import index_mask
from repro.trace import (
    RecordingVictim,
    ReplayVictim,
    TraceHeader,
    TraceRecorder,
)

plaintexts = st.integers(min_value=0, max_value=(1 << 64) - 1)

#: Every live victim class the fast path serves, by name.
VICTIMS = {
    "gift64": lambda key: TracedGift64(key),
    "gift128": lambda key: TracedGift128(key),
    "present80": lambda key: TracedPresent(key >> 48),
    "hardened": lambda key: HardenedKeyScheduleGift64(key),
    "reshaped": lambda key: ReshapedSboxGift64(key),
    "cofb": lambda key: CofbNonceVictim(key),
}
#: Line sizes from one index per line up to one line for all sixteen.
LINE_WORDS = (1, 2, 4, 8, 16)


@lru_cache(maxsize=None)
def _victim(name):
    return VICTIMS[name](derive_key(128, 31))


def _pair(victim, primitive, **overrides):
    """A (fast, full) channel pair with identical RNG streams."""
    fast = ObservationChannel(victim, AttackConfig(
        probe_strategy=primitive, use_fast_path=True, seed=5, **overrides
    ))
    full = ObservationChannel(victim, AttackConfig(
        probe_strategy=primitive, use_fast_path=False, seed=5, **overrides
    ))
    return fast, full


def _lru_readout(victim, monitor, window):
    """Reference readout: run the window's loads (each round's S-box
    entries, then its PermBits entries) through an empty LRU cache and
    report the monitored lines it still holds."""
    cache = SetAssociativeCache(monitor.geometry)
    for indices in window:
        for index in indices:
            cache.access(victim.sbox_load_addresses[index])
        for row, index in zip(victim.perm_load_addresses, indices):
            cache.access(row[index])
    return {
        line for line, address in zip(monitor.lines,
                                      monitor.line_addresses())
        if cache.is_resident(address)
    }


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

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data(), st.sampled_from(sorted(VICTIMS)),
           st.sampled_from(LINE_WORDS), st.integers(1, 3), st.booleans())
    def test_fast_path_is_exact_for_every_victim(
            self, data, name, line_words, attacked_round, use_flush):
        """Every victim x line size x attacked round x flush setting:
        the index-mask fast path reports what the simulated cache sees,
        including the reshaped S-box, whose packed rows put two
        indices on one byte."""
        victim = _victim(name)
        plaintext = data.draw(st.integers(0, (1 << victim.width) - 1))
        fast, full = _pair(victim, "flush_reload",
                           geometry=CacheGeometry(line_words=line_words),
                           use_flush=use_flush)
        assert fast.fast_path_active and not full.fast_path_active
        assert fast.observe(plaintext, attacked_round) == \
            full.observe(plaintext, attacked_round)

    @pytest.mark.parametrize("name", ["gift64", "gift128", "present80",
                                      "reshaped"])
    @pytest.mark.parametrize("line_words", LINE_WORDS)
    def test_batch_matches_scalar_loop(self, name, line_words):
        """On a lossless channel ``observe_batch`` equals the scalar
        ``observe`` loop: both turn one index mask into lines."""
        victim = _victim(name)
        rng = random.Random(line_words)
        batch = [rng.getrandbits(victim.width) for _ in range(12)]
        config = AttackConfig(seed=6,
                              geometry=CacheGeometry(line_words=line_words))
        batched = ObservationChannel(victim, config)
        assert batched.batch_path_active
        scalar = ObservationChannel(victim, config)
        for attacked_round in (1, 3):
            assert batched.observe_batch(batch, attacked_round) == [
                scalar.observe(p, attacked_round) for p in batch
            ]


class TestIndexMask:
    """``sbox_index_mask`` is ``sbox_indices_by_round`` folded into one
    mask, for every implementer of the victim protocol."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data(), st.sampled_from(sorted(VICTIMS)))
    def test_live_victims(self, data, name):
        victim = _victim(name)
        plaintext = data.draw(st.integers(0, (1 << victim.width) - 1))
        last = data.draw(st.integers(1, victim.rounds))
        first = data.draw(st.integers(1, last))
        rows = victim.sbox_indices_by_round(plaintext, last)
        assert victim.sbox_index_mask(plaintext, first, last) == \
            index_mask(rows[first - 1:])

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(plaintexts, st.integers(1, 6),
                              st.integers(0, 5)),
                    min_size=1, max_size=5))
    def test_recording_and_replay_victims(self, windows):
        """The recorder writes the same rows a whole-window
        ``sbox_indices_by_round`` call writes, and replay answers the
        mask from them."""
        victim = _victim("gift64")
        windows = [(p, max(1, last - back), last)
                   for p, last, back in windows]
        header = TraceHeader.for_victim("gift64", victim, AttackConfig())
        by_mask = TraceRecorder(header)
        recording = RecordingVictim(victim, by_mask)
        by_rows = TraceRecorder(header)
        reference = RecordingVictim(victim, by_rows)
        expected = []
        for plaintext, first, last in windows:
            rows = reference.sbox_indices_by_round(plaintext, last)
            expected.append(index_mask(rows[first - 1:]))
            assert recording.sbox_index_mask(plaintext, first, last) == \
                expected[-1]
        assert by_mask.to_trace_file() == by_rows.to_trace_file()
        replay = ReplayVictim(by_mask.to_trace_file())
        assert [replay.sbox_index_mask(p, first, last)
                for p, first, last in windows] == expected

    def test_rejects_bad_windows(self):
        victim = _victim("gift64")
        with pytest.raises(ValueError, match="64-bit"):
            victim.sbox_index_mask(1 << 64, 1, 1)
        with pytest.raises(ValueError, match="last_round"):
            victim.sbox_index_mask(0, 1, victim.rounds + 1)
        with pytest.raises(ValueError, match="first_round"):
            victim.sbox_index_mask(0, 3, 2)


class TestEvictionModel:
    """Each round the victim's PermBits loads follow its S-box loads and
    share cache sets with them; the fast path reads a window that can
    overflow a set out as an LRU cache keeps it, not from the index
    mask alone."""

    @staticmethod
    def _model(name, geometry):
        victim = _victim(name)
        monitor = SboxMonitor.build(victim.layout, geometry,
                                    victim.sbox_load_addresses)
        return monitor, EvictionModel.build(
            monitor, victim.perm_load_addresses, victim.rounds
        )

    @pytest.mark.parametrize("name", ["gift64", "present80", "hardened",
                                      "reshaped"])
    def test_flushed_paper_window_reads_the_mask(self, name):
        """Sixteen segments cannot fill a 16-way set after the S-box
        load they follow, so the paper's one-round window is safe."""
        assert self._model(name, CacheGeometry())[1].safe_rounds == 1

    def test_gift128_round_can_fill_a_set(self):
        """Thirty-two PermBits loads per round can."""
        assert self._model("gift128", CacheGeometry())[1].safe_rounds == 0

    def test_uncontested_geometry_reads_the_mask(self):
        """With 16-word lines each set holds few PermBits lines, so no
        window of any length can evict."""
        monitor, model = self._model("gift64", CacheGeometry(line_words=16))
        assert not model.contested
        assert model.safe_rounds == _victim("gift64").rounds
        window = _victim("gift64").sbox_indices_by_round(0x0123456789ABCDEF,
                                                         3)
        assert model.readout(window) == \
            monitor.lines_of_mask(index_mask(window))

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data(), st.sampled_from(["gift64", "gift128"]),
           st.sampled_from((1, 2, 4)))
    def test_readout_is_what_an_lru_cache_keeps(self, data, name,
                                                line_words):
        """Any window of index rows, realizable or not, reads out as the
        monitored lines an LRU cache still holds after its loads.  Rows
        drawn from a few indices crowd one set, up to and past ``ways``
        distinct lines."""
        victim = _victim(name)
        geometry = CacheGeometry(line_words=line_words)
        monitor, model = self._model(name, geometry)
        pool = data.draw(st.lists(st.integers(0, 15), min_size=1,
                                  max_size=3))
        segments = len(victim.perm_load_addresses)
        window = data.draw(st.lists(
            st.lists(st.sampled_from(pool), min_size=segments,
                     max_size=segments),
            min_size=1, max_size=4,
        ))
        assert model.readout(window) == _lru_readout(victim, monitor,
                                                     window)

    @pytest.mark.parametrize("crowding", [15, 16])
    def test_sixteenth_line_evicts(self, crowding):
        """GIFT-64 under 2-word lines: round 1 loads line 2048 (index 0),
        and in round 2 every segment whose index is 13 loads a distinct
        PermBits line of 2048's 16-way set.  Fifteen leave it cached;
        sixteen evict it."""
        victim = _victim("gift64")
        monitor, model = self._model("gift64", CacheGeometry(line_words=2))
        window = [[0] * 16, [13] * crowding + [2] * (16 - crowding)]
        observed = model.readout(window)
        assert (2048 in observed) == (crowding < 16)
        assert observed == _lru_readout(victim, monitor, window)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data(), st.sampled_from(["gift64", "gift128", "present80"]),
           st.sampled_from((1, 2)), st.integers(2, 6))
    def test_long_flushed_windows_read_out_exactly(
            self, data, name, line_words, probing_round):
        """Fig. 3 and Table I probe rounds 2 and later: flushed windows
        longer than ``safe_rounds`` read out as the full path sees
        them."""
        victim = _victim(name)
        plaintext = data.draw(st.integers(0, (1 << victim.width) - 1))
        fast, full = _pair(victim, "flush_reload",
                           geometry=CacheGeometry(line_words=line_words),
                           probing_round=probing_round)
        assert fast._eviction.safe_rounds < probing_round
        assert fast.observe(plaintext, 1) == full.observe(plaintext, 1)

    def test_self_evicted_line_is_not_observed(self):
        """The victim sweep's falsifying example: 146 puts index 9
        (line 2052 under 2-word lines) in round 1, then the zero
        nibbles' thirty PermBits loads land in that line's set and an
        unflushed window loses it."""
        victim = _victim("gift128")
        fast, full = _pair(victim, "flush_reload",
                           geometry=CacheGeometry(line_words=2),
                           use_flush=False)
        loaded = fast.monitor.lines_of_mask(
            victim.sbox_index_mask(146, 1, 2)
        )
        assert 2052 in loaded
        observed = full.observe(146, 1)
        assert 2052 not in observed
        assert fast.observe(146, 1) == observed == loaded - {2052}

    def test_replay_reads_out_what_the_recording_saw(self):
        """Replay derives the PermBits addresses from the header's
        target and layout, so it evicts what the live victim did."""
        victim = _victim("gift128")
        config = AttackConfig(seed=5, use_flush=False,
                              geometry=CacheGeometry(line_words=2))
        recorder = TraceRecorder(
            TraceHeader.for_victim("gift128", victim, config)
        )
        live = ObservationChannel(RecordingVictim(victim, recorder), config)
        seen = live.observe(146, 1)
        assert 2052 not in seen
        replayed = ObservationChannel(
            ReplayVictim(recorder.to_trace_file()), config
        )
        assert replayed.observe(146, 1) == seen


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

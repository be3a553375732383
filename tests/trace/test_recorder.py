"""The recording victim: capture without perturbation.

The load-bearing property is RNG transparency — the pinned seed-0
GIFT-64 full-key recovery must still take exactly 464 encryptions
with a recorder in the loop, on both observer paths.
"""

import pytest

from repro.core.attack import GrinchAttack
from repro.core.config import AttackConfig
from repro.countermeasures.reshaped_sbox import (
    RECOMMENDED_GEOMETRY,
    ReshapedSboxGift64,
)
from repro.seeding import derive_key
from repro.targets.registry import get_target, target_names
from repro.trace import (
    RecordingVictim,
    TraceError,
    TraceHeader,
    TraceRecorder,
)

#: The pinned effort invariant from tests/channel/test_observer.py.
PINNED_GIFT64_SEED0 = 464


def _gift64_setup(config):
    target = get_target("gift64")
    key = derive_key(target.key_bits, 0)
    victim = target.make_victim(key)
    header = TraceHeader.for_victim("gift64", victim, config,
                                    scope="full-key")
    return key, victim, header


class TestRecordingVictimTransparency:
    def test_fast_path_pinned_effort(self):
        config = AttackConfig(seed=0)
        key, victim, header = _gift64_setup(config)
        recorder = TraceRecorder(header)
        attack = GrinchAttack(RecordingVictim(victim, recorder), config)
        result = attack.recover_master_key()
        assert result.master_key == key
        assert result.verified
        assert result.total_encryptions == PINNED_GIFT64_SEED0
        trace = recorder.to_trace_file()
        assert trace.windows == PINNED_GIFT64_SEED0
        assert trace.pairs == 1

    def test_full_path_pinned_effort(self):
        config = AttackConfig(seed=0, use_fast_path=False)
        key, victim, header = _gift64_setup(config)
        recorder = TraceRecorder(header)
        attack = GrinchAttack(RecordingVictim(victim, recorder), config)
        result = attack.recover_master_key()
        assert result.master_key == key
        assert result.total_encryptions == PINNED_GIFT64_SEED0
        assert recorder.to_trace_file().windows == PINNED_GIFT64_SEED0

    def test_delegation_preserves_victim_surface(self):
        config = AttackConfig(seed=0)
        _, victim, header = _gift64_setup(config)
        wrapped = RecordingVictim(victim, TraceRecorder(header))
        assert wrapped.width == victim.width
        assert wrapped.rounds == victim.rounds
        assert wrapped.layout == victim.layout
        # Target resolution must see the wrapped victim exactly.
        from repro.targets.registry import resolve_target_for
        assert resolve_target_for(wrapped) is resolve_target_for(victim)

    def test_return_values_untouched(self):
        config = AttackConfig(seed=0)
        _, victim, header = _gift64_setup(config)
        recorder = TraceRecorder(header)
        wrapped = RecordingVictim(victim, recorder)
        plaintext = 0x0123_4567_89AB_CDEF
        assert wrapped.encrypt(plaintext) == victim.encrypt(plaintext)
        assert (wrapped.sbox_indices_by_round(plaintext, 2)
                == victim.sbox_indices_by_round(plaintext, 2))
        recorded = recorder.to_trace_file()
        assert recorded.pairs == 1
        assert recorded.windows == 1
        assert recorded.records[0].plaintext == plaintext


class TestLoadAddressCheck:
    """Replay derives the load addresses from the header, so a victim
    that loads elsewhere cannot be recorded."""

    @pytest.mark.parametrize("name", target_names())
    def test_registered_targets_record(self, name):
        target = get_target(name)
        victim = target.make_victim(derive_key(target.key_bits, 0))
        header = TraceHeader.for_victim(name, victim, AttackConfig())
        RecordingVictim(victim, TraceRecorder(header))

    def test_reshaped_sbox_victim_is_refused(self):
        victim = ReshapedSboxGift64(derive_key(128, 0))
        config = AttackConfig(geometry=RECOMMENDED_GEOMETRY)
        header = TraceHeader.for_victim("gift64", victim, config)
        assert victim.sbox_load_addresses[:3] == (4096, 4096, 4097)
        with pytest.raises(TraceError, match="ReshapedSboxGift64"):
            RecordingVictim(victim, TraceRecorder(header))

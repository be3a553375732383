"""The target layer's batch hook: ``CipherTarget.batch_view``.

Every registered target must honour the same contract: ``batch_view``
returns a bitsliced backend exactly for the targets that have one
(gift64, gift128, present80) and ``None`` otherwise (giftcofb), and it
must refuse to see through recording/replay wrappers so those channels
stay scalar-exact.  Where a backend exists, its ``encrypt_batch`` and
``sbox_indices_batch`` equal the scalar victim's loop element for
element.
"""

import pytest

from repro.seeding import derive_key, derive_rng
from repro.targets.registry import get_target, target_names

ALL_TARGETS = tuple(sorted(target_names()))
BITSLICED_TARGETS = ("gift128", "gift64", "present80")


def _pool(target_name, count=6):
    target = get_target(target_name)
    victim = target.make_victim(derive_key(target.key_bits, 0))
    rng = derive_rng("targets-batch-tests", target_name)
    return target, victim, [rng.getrandbits(victim.width)
                            for _ in range(count)]


class TestBatchView:
    @pytest.mark.parametrize("name", ALL_TARGETS)
    def test_backend_exactly_for_the_bitsliced_targets(self, name):
        target, victim, _ = _pool(name)
        view = target.batch_view(victim)
        assert (view is not None) is (name in BITSLICED_TARGETS)

    @pytest.mark.parametrize("name", BITSLICED_TARGETS)
    def test_sees_its_own_victims(self, name):
        target, victim, plaintexts = _pool(name)
        view = target.batch_view(victim)
        assert view is not None
        assert view.encrypt_batch(plaintexts) \
            == [victim.encrypt(p) for p in plaintexts]

    @pytest.mark.parametrize("name", BITSLICED_TARGETS)
    def test_encrypt_batch_equals_scalar_loop(self, name):
        # The all-zero and all-one blocks sit on either edge of the
        # bit-plane packing; the empty batch must come back empty.
        target, victim, plaintexts = _pool(name, count=16)
        plaintexts += [0, (1 << victim.width) - 1]
        view = target.batch_view(victim)
        assert view.encrypt_batch(plaintexts) \
            == [victim.encrypt(p) for p in plaintexts]
        assert view.encrypt_batch([]) == []

    @pytest.mark.parametrize("name", BITSLICED_TARGETS)
    def test_sbox_indices_batch_equals_scalar_loop(self, name):
        target, victim, plaintexts = _pool(name)
        limit = min(3, victim.rounds)
        indices = target.batch_view(victim).sbox_indices_batch(
            plaintexts, max_rounds=limit
        )
        assert indices.shape == (limit, victim.width // 4, len(plaintexts))
        for n, plaintext in enumerate(plaintexts):
            expected = victim.sbox_indices_by_round(plaintext, limit)
            for round_index in range(limit):
                assert list(indices[round_index, :, n]) \
                    == list(expected[round_index])

    def test_giftcofb_has_no_backend(self):
        target = get_target("giftcofb")
        victim = target.make_victim(derive_key(target.key_bits, 0))
        assert target.batch_view(victim) is None

    @pytest.mark.parametrize("name", BITSLICED_TARGETS)
    def test_refuses_wrapped_victims(self, name):
        # Recording and replay wrap the victim in classes the
        # isinstance check cannot (and must not) see through: recording
        # stays RNG-transparent, replay stays cipher-free.
        from repro.trace import (
            RecordingVictim,
            ReplayVictim,
            TraceHeader,
            TraceRecorder,
        )
        from repro.core.config import AttackConfig

        target = get_target(name)
        victim = target.make_victim(derive_key(target.key_bits, 0))
        header = TraceHeader.for_victim(name, victim, AttackConfig())
        recorder = TraceRecorder(header)
        assert target.batch_view(RecordingVictim(victim, recorder)) is None
        assert target.batch_view(
            ReplayVictim(recorder.to_trace_file())) is None

"""Replay: recorded traces drive the unchanged pipeline, no cipher."""

import dataclasses
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.transport import SingleLevelTransport
from repro.core.attack import GrinchAttack
from repro.core.config import AttackConfig
from repro.seeding import derive_key
from repro.targets.registry import get_target
from repro.trace import (
    KIND_PAIR,
    EncryptionRecord,
    RecordingVictim,
    ReplayVictim,
    TraceError,
    TraceExhaustedError,
    TraceFile,
    TraceHeader,
    TraceMismatchError,
    TraceRecorder,
    play,
    write_binary,
)
from repro.tracecli import main as trace_main


def _record_full_key(target_name, seed=0, **config_overrides):
    target = get_target(target_name)
    key = derive_key(target.key_bits, seed)
    victim = target.make_victim(key)
    config = AttackConfig(seed=seed, **config_overrides)
    header = TraceHeader.for_victim(target_name, victim, config,
                                    scope="full-key")
    recorder = TraceRecorder(header)
    result = GrinchAttack(RecordingVictim(victim, recorder), config) \
        .recover_master_key()
    return key, config, result, recorder.to_trace_file()


class TestReplayVictim:
    def test_full_key_without_cipher(self):
        key, config, live, trace = _record_full_key("gift64")
        replayed = GrinchAttack(ReplayVictim(trace), config) \
            .recover_master_key()
        assert replayed.master_key == key
        assert replayed.verified
        assert replayed.total_encryptions == live.total_encryptions
        assert replayed.encryptions_by_round == live.encryptions_by_round

    def test_full_path_replay(self):
        key, config, live, trace = _record_full_key(
            "gift64", use_fast_path=False
        )
        replayed = GrinchAttack(ReplayVictim(trace), config) \
            .recover_master_key()
        assert replayed.master_key == key
        assert replayed.total_encryptions == live.total_encryptions

    def test_present_replay(self):
        key, config, live, trace = _record_full_key("present80")
        replayed = GrinchAttack(ReplayVictim(trace), config) \
            .recover_master_key()
        assert replayed.master_key == key
        assert replayed.total_encryptions == live.total_encryptions

    def test_attack_surface_comes_from_header(self):
        _, _, _, trace = _record_full_key("gift64")
        victim = ReplayVictim(trace)
        header = trace.header
        assert victim.width == header.width
        assert victim.rounds == header.rounds
        assert victim.layout == header.layout
        assert victim.attack_target == header.target
        assert victim.probe_round_offset == header.probe_round_offset

    def test_strict_plaintext_drift_raises(self):
        _, _, _, trace = _record_full_key("gift64")
        victim = ReplayVictim(trace)
        first = trace.records[0]
        wrong = (first.plaintext or 0) ^ 1
        with pytest.raises(TraceMismatchError):
            victim.sbox_indices_by_round(wrong, 1)

    def test_strict_kind_drift_raises(self):
        _, _, _, trace = _record_full_key("gift64")
        victim = ReplayVictim(trace)
        first = trace.records[0]
        assert first.is_window
        with pytest.raises(TraceMismatchError):
            victim.encrypt(first.plaintext)

    def test_unregistered_target_is_a_typed_refusal(self, tmp_path,
                                                    capsys):
        header = TraceHeader(target="nosuch", width=64, rounds=28)
        trace = TraceFile(header=header)
        with pytest.raises(TraceError, match="'nosuch'"):
            ReplayVictim(trace)
        path = tmp_path / "nosuch.grtr"
        write_binary(trace, path)
        assert trace_main(["replay", str(path)]) == 2
        assert "'nosuch' is not registered" in capsys.readouterr().err

    def test_registered_target_replays(self, header):
        victim = ReplayVictim(TraceFile(header=header))
        assert victim.sbox_load_addresses == tuple(
            header.layout.sbox_addresses())

    def test_exhaustion_is_typed(self, header):
        trace = TraceFile(header=header, records=(
            EncryptionRecord(kind=KIND_PAIR, plaintext=1, ciphertext=2),
        ))
        victim = ReplayVictim(trace)
        assert victim.encrypt(1) == 2
        with pytest.raises(TraceExhaustedError):
            victim.encrypt(1)
        with pytest.raises(TraceExhaustedError):
            victim.sbox_indices_by_round(1, 1)

    def test_short_window_raises(self, header):
        rows = (tuple(range(16)),)
        trace = TraceFile(header=header, records=(
            EncryptionRecord(kind="indices", plaintext=None,
                             rounds_visible=1, indices=rows),
        ))
        with pytest.raises(TraceMismatchError):
            ReplayVictim(trace).sbox_indices_by_round(0, 3)

    def test_counters(self):
        _, config, _, trace = _record_full_key("gift64")
        victim = ReplayVictim(trace)
        GrinchAttack(victim, config).recover_master_key()
        assert victim.pairs_served == 1
        assert victim.windows_served == trace.windows
        assert victim.remaining == 0


class TestAddressRuns:
    """Both wrappers serve the full path's per-round address runs as
    the address stream of their ``encrypt_traced``, every round bound
    covered."""

    @staticmethod
    def _recording(key):
        victim = get_target("gift64").make_victim(key)
        header = TraceHeader.for_victim("gift64", victim, AttackConfig(),
                                        scope="runs")
        recorder = TraceRecorder(header)
        return RecordingVictim(victim, recorder), recorder

    @staticmethod
    def _assert_runs_match(runs, trace, max_rounds):
        assert list(chain(*runs)) == \
            [access.address for access in trace.accesses]
        assert runs == trace.address_runs(max_rounds)

    @settings(max_examples=3, deadline=None)
    @given(key=st.integers(0, (1 << 128) - 1),
           plaintext=st.integers(0, (1 << 64) - 1))
    def test_recording_and_replay_runs(self, key, plaintext):
        recording, recorder = self._recording(key)
        rounds = range(1, recording.rounds + 1)
        for max_rounds in rounds:
            runs = recording.load_addresses_by_round(plaintext, max_rounds)
            trace = recording.encrypt_traced(plaintext, max_rounds)
            self._assert_runs_match(runs, trace, max_rounds)
            recording.sbox_indices_by_round(plaintext, max_rounds)
            recording.sbox_indices_by_round(plaintext, max_rounds)
        records = recorder.records
        # A full-path window records what encrypt_traced records.
        assert records[0::4] == records[1::4]
        trace_file = recorder.to_trace_file()
        for kept in ((0, 1), (2, 3)):  # accesses, then indices records
            replay = ReplayVictim(dataclasses.replace(
                trace_file, records=tuple(
                    record for position, record in enumerate(records)
                    if position % 4 in kept)))
            for max_rounds in rounds:
                runs = replay.load_addresses_by_round(plaintext, max_rounds)
                trace = replay.encrypt_traced(plaintext, max_rounds)
                self._assert_runs_match(runs, trace, max_rounds)
            assert replay.remaining == 0

    def test_recording_out_of_range_raises_as_indices(self):
        recording, recorder = self._recording(0x1)
        for plaintext, max_rounds in ((1 << 64, 1), (0, 0), (0, 29)):
            with pytest.raises(ValueError) as expected:
                recording.sbox_indices_by_round(plaintext, max_rounds)
            with pytest.raises(ValueError) as raised:
                recording.load_addresses_by_round(plaintext, max_rounds)
            assert str(raised.value) == str(expected.value)
        assert recorder.records == []


class TestReplayTransport:
    """``play`` replays a record into a transport of the trace's
    geometry."""

    def test_play_feeds_victim_traffic(self):
        _, _, _, trace = _record_full_key("gift64",
                                          use_fast_path=False)
        transport = SingleLevelTransport(trace.header.geometry)
        window = next(r for r in trace.records if r.is_window)
        played = play(transport, window, header=trace.header)
        assert played == len(window.accesses)
        # A played S-box line is now resident: reload hits.
        assert transport.access(window.accesses[0].address)

    def test_play_indices_needs_header(self):
        _, _, _, trace = _record_full_key("gift64")  # fast path: indices
        transport = SingleLevelTransport(trace.header.geometry)
        window = next(r for r in trace.records if r.is_window)
        with pytest.raises(TraceMismatchError):
            play(transport, window)
        assert play(transport, window, header=trace.header) > 0

    def test_play_respects_round_limit(self):
        _, _, _, trace = _record_full_key("gift64")
        transport = SingleLevelTransport(trace.header.geometry)
        window = next(r for r in trace.records if r.is_window)
        all_rounds = play(transport.cold(), window, header=trace.header)
        one_round = play(transport.cold(), window, header=trace.header,
                         through_round=1)
        assert one_round == trace.header.segments
        assert all_rounds > one_round

    def test_pair_plays_nothing(self):
        _, _, _, trace = _record_full_key("gift64")
        transport = SingleLevelTransport(trace.header.geometry)
        pair = next(r for r in trace.records if r.kind == KIND_PAIR)
        assert play(transport, pair) == 0
        assert transport.cache.stats.accesses == 0

    def test_geometry_check(self):
        _, _, _, trace = _record_full_key("gift64")
        transport = SingleLevelTransport(trace.header.geometry)
        transport.check_geometry(trace.header.geometry)
        wide = dataclasses.replace(trace.header.geometry, line_words=8)
        with pytest.raises(ValueError):
            transport.check_geometry(wide)

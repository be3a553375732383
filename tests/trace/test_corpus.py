"""The committed golden-trace corpus: replay-only regression pins.

These tests never construct a cipher victim — every recovery below
runs from the committed ``tests/corpus/*.grtr`` files alone.  The
pinned numbers mirror the live-effort invariant in
``tests/channel/test_observer.py`` (seed-0 GIFT-64 full key = exactly
464 encryptions): if a pipeline change shifts what the attack extracts
from a fixed observation stream, these fail first.
"""

from pathlib import Path

import pytest

from repro.core.attack import GrinchAttack
from repro.engine.replay import DEFAULT_TRACES, config_from_header
from repro.seeding import derive_key
from repro.trace import ReplayVictim, dumps, read_binary

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

#: Pinned effort per corpus trace (windows == recorded encryptions).
PINNED = {
    "gift64-seed0-full.grtr": 464,
    "gift64-seed0-first.grtr": 116,
    "gift64-seed0-miss20-full.grtr": 1856,
    "present80-seed0-full.grtr": 244,
    "present80-seed0-first.grtr": 132,
}


def _read(name):
    return read_binary(CORPUS_DIR / name)


class TestCorpusIntegrity:
    def test_all_default_traces_committed(self):
        for path_text in DEFAULT_TRACES:
            assert (CORPUS_DIR / Path(path_text).name).is_file()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_window_counts_pinned(self, name):
        trace = _read(name)
        assert trace.windows == PINNED[name]
        assert trace.header.seed == 0
        assert trace.header.meta["total_encryptions"] == PINNED[name]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_binary_is_canonical(self, name):
        """Decoding and re-encoding gives the committed bytes back."""
        path = CORPUS_DIR / name
        assert dumps(read_binary(path)) == path.read_bytes()

    def test_corpus_stays_small(self):
        total = sum((CORPUS_DIR / name).stat().st_size
                    for name in PINNED)
        assert total < 500_000, "golden corpus must stay a few hundred KB"


class TestReplayOnlyRecovery:
    def test_gift64_full_key_from_corpus_alone(self):
        trace = _read("gift64-seed0-full.grtr")
        result = GrinchAttack(
            ReplayVictim(trace), config_from_header(trace.header)
        ).recover_master_key()
        assert result.master_key == derive_key(128, 0)
        assert result.verified
        assert result.total_encryptions == 464

    def test_present80_full_key_from_corpus_alone(self):
        trace = _read("present80-seed0-full.grtr")
        result = GrinchAttack(
            ReplayVictim(trace), config_from_header(trace.header)
        ).recover_master_key()
        assert result.master_key == derive_key(80, 0)
        assert result.verified
        assert result.total_encryptions == 244

    @pytest.mark.parametrize("name,bits", [
        ("gift64-seed0-first.grtr", 32),
        ("present80-seed0-first.grtr", 64),
    ])
    def test_first_round_from_corpus_alone(self, name, bits):
        trace = _read(name)
        result = GrinchAttack(
            ReplayVictim(trace), config_from_header(trace.header)
        ).attack_first_round()
        assert result.recovered_bits == bits
        assert result.encryptions == PINNED[name]

    def test_replay_consumes_whole_recording(self):
        trace = _read("gift64-seed0-full.grtr")
        victim = ReplayVictim(trace)
        GrinchAttack(victim, config_from_header(trace.header)) \
            .recover_master_key()
        assert victim.remaining == 0
        assert victim.windows_served == 464
        assert victim.pairs_served == 1

    def test_recorded_key_matches_derivation(self):
        """The corpus metadata agrees with the seeding discipline."""
        trace = _read("gift64-seed0-full.grtr")
        assert int(trace.header.meta["master_key"], 16) \
            == derive_key(128, 0)
        assert trace.header.meta["recovered"] is True

    def test_degraded_recording_replays_through_voting(self):
        """The 20%-miss recording rebuilds its lossy channel from the
        header meta alone and recovers the key via voting, with the
        exact recorded effort."""
        trace = _read("gift64-seed0-miss20-full.grtr")
        assert trace.header.meta["miss_probability"] == 0.2
        config = config_from_header(trace.header)
        assert config.loss.miss_probability == 0.2
        victim = ReplayVictim(trace)
        attack = GrinchAttack(victim, config)
        assert not attack.runner.is_lossless
        result = attack.recover_master_key()
        assert result.master_key == derive_key(128, 0)
        assert result.verified
        assert result.total_encryptions == 1856
        assert victim.remaining == 0

"""The ``python -m repro trace`` front-end."""

import dataclasses
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.seeding import derive_key
from repro.trace import read_binary, write_binary
from repro.tracecli import main as trace_main

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


class TestRecord:
    def test_record_replay_check(self, tmp_path, capsys):
        out = tmp_path / "run.grtr"
        assert trace_main(["record", "--target", "gift64", "--seed", "0",
                           "--scope", "first-round",
                           "--out", str(out)]) == 0
        assert out.is_file()
        assert trace_main(["replay", str(out), "--check"]) == 0
        captured = capsys.readouterr()
        assert "replay matches the recording" in captured.out

    def test_record_is_deterministic(self, tmp_path):
        paths = [tmp_path / "a.grtr", tmp_path / "b.grtr"]
        for path in paths:
            assert trace_main(["record", "--target", "present80",
                               "--seed", "3", "--scope", "first-round",
                               "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_record_matches_committed_corpus(self, tmp_path):
        """A fresh seed-0 recording is byte-identical to the corpus."""
        out = tmp_path / "fresh.grtr"
        assert trace_main(["record", "--target", "gift64", "--seed", "0",
                           "--scope", "full-key",
                           "--out", str(out)]) == 0
        committed = (CORPUS_DIR / "gift64-seed0-full.grtr").read_bytes()
        assert out.read_bytes() == committed

    def test_record_stamps_meta(self, tmp_path):
        out = tmp_path / "run.grtr"
        trace_main(["record", "--target", "gift64", "--seed", "0",
                    "--scope", "full-key", "--out", str(out)])
        meta = read_binary(out).header.meta
        assert meta["recovered"] is True
        assert meta["total_encryptions"] == 464
        assert int(meta["master_key"], 16) == derive_key(128, 0)


class TestReplay:
    def test_check_catches_tamper(self, tmp_path, capsys, monkeypatch):
        """``--check`` and E18 apply one rule: every recorded value must
        match, and a value the recording lacks is a mismatch."""
        from repro.engine import run_experiment

        def edit_gift_full(meta):
            meta["total_encryptions"] = 999

        def edit_gift_first(meta):
            meta["recovered_bits"] = 31

        def keep_only_scope(meta):
            for name in list(meta):
                if name != "scope":
                    del meta[name]

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        cases = [
            ("gift64-seed0-full.grtr", edit_gift_full, "effort drift"),
            ("gift64-seed0-first.grtr", edit_gift_first,
             "recovered-bits mismatch"),
            ("gift64-seed0-full.grtr", keep_only_scope,
             "key mismatch: recorded nothing"),
        ]
        for index, (name, edit, complaint) in enumerate(cases):
            trace = read_binary(CORPUS_DIR / name)
            meta = dict(trace.header.meta)
            edit(meta)
            header = dataclasses.replace(trace.header, meta=meta)
            tampered = tmp_path / f"tampered-{index}.grtr"
            write_binary(dataclasses.replace(trace, header=header),
                         tampered)
            assert trace_main(["replay", str(tampered), "--check"]) == 1
            assert complaint in capsys.readouterr().err
            record = run_experiment("trace_replay",
                                    {"traces": str(tampered)},
                                    use_cache=False)
            assert record["cells"][0]["matches_recording"] is False

    def test_corrupt_file_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.grtr"
        bad.write_bytes(b"GRTR" + b"\x00" * 10)
        assert trace_main(["replay", str(bad)]) == 2
        assert "trace error" in capsys.readouterr().err

    def test_missing_file_is_a_clean_error(self, capsys):
        assert trace_main(["replay", "/nonexistent/trace.grtr"]) == 2
        assert "trace error" in capsys.readouterr().err


class TestInfo:
    def test_info(self, capsys):
        assert trace_main(
            ["info", str(CORPUS_DIR / "gift64-seed0-full.grtr")]
        ) == 0
        out = capsys.readouterr().out
        assert "gift64" in out
        assert "464 windows" in out
        assert "full-key" in out

    @pytest.mark.parametrize("command", ["info", "replay"])
    def test_text_file_is_a_clean_error(self, tmp_path, capsys, command):
        log = tmp_path / "victim.log"
        log.write_text("alloc 0x55a0 16\nenc 0123\n", encoding="utf-8")
        assert trace_main([command, str(log)]) == 2
        assert "trace error: bad magic" in capsys.readouterr().err


class TestTopLevelWiring:
    def test_repro_trace_dispatches(self, capsys):
        code = repro_main(
            ["trace", "info",
             str(CORPUS_DIR / "present80-seed0-full.grtr")]
        )
        assert code == 0
        assert "present80" in capsys.readouterr().out

    def test_trace_in_top_level_help(self, capsys):
        with pytest.raises(SystemExit):
            repro_main(["--help"])
        assert "trace" in capsys.readouterr().out

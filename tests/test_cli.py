"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _redirect_results(tmp_path, monkeypatch):
    """Keep engine artifacts/cache out of the repository during tests."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))


class TestAttackCommand:
    def test_recovers_and_exits_zero(self, capsys):
        assert main(["attack", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "MATCH" in out
        assert "victim encryptions" in out

    def test_explicit_key(self, capsys):
        key = "0123456789abcdef0123456789abcdef"
        assert main(["attack", "--key", key, "--seed", "1"]) == 0
        assert key in capsys.readouterr().out

    def test_gift128(self, capsys):
        assert main(["attack", "--width", "128", "--seed", "2"]) == 0
        assert "GIFT-128" in capsys.readouterr().out

    def test_wide_lines(self, capsys):
        assert main(["attack", "--line-words", "2", "--seed", "3"]) == 0

    def test_rejects_bad_width(self):
        with pytest.raises(SystemExit):
            main(["attack", "--width", "96"])


class TestExperimentCommands:
    """The paper artefacts are ``run <experiment>``; the old per-artefact
    subcommands are gone."""

    def test_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "single-core SoC" in out
        assert "MPSoC" in out

    def test_theory(self, capsys):
        assert main(["theory", "--line-words", "4"]) == 0
        out = capsys.readouterr().out
        assert "drop-out" in out
        assert "practical limit" in out

    def test_figure3_quick(self, capsys):
        assert main(["run", "figure3", "--set", "runs=1"]) == 0
        assert "no-flush" in capsys.readouterr().out

    def test_table1_quick(self, capsys):
        assert main(["run", "table1", "--set", "runs=1"]) == 0
        assert ">1M" in capsys.readouterr().out

    def test_countermeasures(self, capsys):
        assert main(["run", "countermeasures"]) == 0
        out = capsys.readouterr().out
        assert "defeated" in out
        assert "BROKEN" not in out

    @pytest.mark.parametrize("legacy", ["figure3", "table1", "table2",
                                        "countermeasures"])
    def test_legacy_subcommands_are_gone(self, legacy):
        with pytest.raises(SystemExit):
            main([legacy])

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestRunCommand:
    def test_list_names_every_design_id(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in [f"E{i}" for i in range(1, 14)]:
            assert experiment_id in out
        assert "figure3" in out
        assert "--set" in out

    def test_no_experiment_prints_the_listing(self, capsys):
        assert main(["run"]) == 0
        assert "figure3" in capsys.readouterr().out

    def test_json_record_is_schema_valid(self, capsys):
        from repro.engine import validate_record

        assert main(["run", "table2", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        validate_record(record)
        assert record["experiment"] == "table2"

    def test_second_run_is_a_cache_hit(self, capsys):
        assert main(["run", "table2", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["telemetry"]["cache"] == "miss"
        assert main(["run", "table2", "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["telemetry"]["cache"] == "hit"
        assert second["cells"] == first["cells"]

    def test_no_cache_disables_the_cache(self, capsys):
        assert main(["run", "table2", "--json", "--no-cache"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["telemetry"]["cache"] == "disabled"

    def test_resolves_design_ids(self, capsys):
        assert main(["run", "E3", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["experiment"] == "table2"

    def test_writes_the_json_artifact(self, tmp_path, capsys):
        assert main(["run", "table2", "--json"]) == 0
        assert (tmp_path / "table2.json").exists()

    def test_set_overrides_a_parameter(self, capsys):
        assert main(["run", "table2", "--json",
                     "--set", "frequencies_mhz=25"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["params"]["frequencies_mhz"] == [25]

    def test_seed_flag_overrides_the_seed_param(self, capsys):
        assert main(["run", "figure3", "--json", "--seed", "9",
                     "--set", "probing_rounds=1", "--set", "runs=1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["params"]["seed"] == 9

    def test_seed_flag_rejected_without_seed_param(self):
        with pytest.raises(SystemExit):
            main(["run", "table2", "--seed", "9"])

    def test_unknown_experiment_fails(self):
        with pytest.raises(SystemExit):
            main(["run", "figure99"])

    def test_unknown_parameter_fails(self):
        with pytest.raises(SystemExit):
            main(["run", "table2", "--set", "bogus=1"])

    def test_malformed_assignment_fails(self):
        with pytest.raises(SystemExit):
            main(["run", "table2", "--set", "frequencies_mhz"])

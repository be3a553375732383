"""Paper claims of the table/figure experiments, read off engine records.

E1 (Fig. 3), E2 (Table I), E3 (Table II), E4 (the full-key headline)
and the E6/E7/E9 ablations all run through
:func:`repro.engine.run_experiment`; the row helpers of
:mod:`repro.analysis.reporting` lay the records out like the paper.
"""

import json

import pytest

from repro.analysis import figure3_series, table1_rows, table2_rows
from repro.cli import main
from repro.engine import run_experiment


def run(name, **params):
    return run_experiment(name, params, use_cache=False)


def table1_cells(record):
    return {(c["cell"]["line_words"], c["cell"]["probing_round"]): c
            for c in record["cells"]}


class TestFigure3:
    def test_shape_matches_paper(self):
        """Effort grows with the probing round and no-flush always costs
        more — Fig. 3's two qualitative claims."""
        record = run("figure3", probing_rounds=[1, 2, 3], runs=1,
                     max_simulated_effort=2_000)
        for use_flush in (True, False):
            efforts = [c["encryptions"]
                       for c in figure3_series(record, use_flush)]
            assert efforts == sorted(efforts)
        for flush_cell, no_flush_cell in zip(figure3_series(record, True),
                                             figure3_series(record, False)):
            assert no_flush_cell["encryptions"] > flush_cell["encryptions"]

    def test_round_one_with_flush_near_paper_value(self):
        """Paper: ~100 encryptions to break the first round when probing
        round 1 (32 key bits)."""
        record = run("figure3", probing_rounds=[1], runs=3)
        (cell,) = figure3_series(record, True)
        assert cell["simulated"]
        assert 60 <= cell["encryptions"] <= 300

    def test_analytic_fallback_beyond_budget(self):
        record = run("figure3", probing_rounds=[1, 6], runs=1,
                     max_simulated_effort=500)
        assert not figure3_series(record, True)[1]["simulated"]

    def test_validation(self):
        with pytest.raises(ValueError):
            run("figure3", runs=0)


class TestTable1:
    def test_dropout_triangle_matches_paper(self):
        """The >1M cells appear in the same lower-right triangle as the
        paper's Table I."""
        cells = table1_cells(run("table1", runs=1,
                                 max_simulated_effort=2_000))
        assert not cells[1, 1]["dropped_out"]
        assert not cells[2, 4]["dropped_out"]
        assert cells[2, 5]["dropped_out"]
        assert cells[4, 3]["dropped_out"]
        assert cells[8, 2]["dropped_out"]

    def test_effort_grows_along_both_axes(self):
        cells = table1_cells(run("table1", line_sizes=[1, 2],
                                 probing_rounds=[1, 2], runs=1,
                                 max_simulated_effort=2_000))

        def value(lw, r):
            return cells[lw, r]["encryptions"]

        assert value(1, 2) > value(1, 1)
        assert value(2, 1) > value(1, 1)

    def test_rows_render_like_the_paper(self):
        rows = table1_rows(run("table1", line_sizes=[1, 8],
                               probing_rounds=[1, 2], runs=1,
                               max_simulated_effort=500))
        assert rows[0][0] == "1 Word"
        assert rows[1][0] == "8 Words"
        assert rows[1][2] == ">1M"


class TestTable2:
    def test_reproduces_paper_table2_exactly(self):
        probed = {(c["cell"]["platform"], c["cell"]["frequency_mhz"]):
                  c["probed_round"] for c in run("table2")["cells"]}
        assert probed["single-core SoC", 10] == 2
        assert probed["single-core SoC", 25] == 4
        assert probed["single-core SoC", 50] == 8
        for mhz in (10, 25, 50):
            assert probed["MPSoC", mhz] == 1

    def test_rows_layout(self):
        rows = table2_rows(run("table2"))
        assert rows[0] == ["single-core SoC", "2", "4", "8"]
        assert rows[1] == ["MPSoC", "1", "1", "1"]


class TestFullKey:
    def test_headline_effort(self):
        """Full 128-bit recovery in the few-hundred-encryption regime."""
        record = run("full_key", runs=2, seed=4)
        assert record["summary"]["all_recovered"]
        assert record["summary"]["mean_encryptions"] < 1_000

    def test_validation(self):
        with pytest.raises(ValueError):
            run("full_key", runs=0)

    def test_respects_custom_config(self, tmp_path, monkeypatch, capsys):
        """A non-default attack configuration is a set of ``--set``
        parameters on ``run full_key``."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["run", "full_key", "--json", "--no-cache",
                     "--set", "runs=1", "--set", "seed=4",
                     "--set", "probing_round=2",
                     "--set", "max_total_encryptions=0"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["params"]["probing_round"] == 2
        assert record["summary"]["all_recovered"]


class TestAblations:
    def test_flush_reload_beats_prime_probe(self):
        record = run("probe_ablation", seed=2, runs=1)
        by_name = {c["cell"]["strategy"]: c for c in record["cells"]}
        assert by_name["flush_reload"]["recovered"]
        assert by_name["prime_probe"]["recovered"]
        assert by_name["prime_probe"]["encryptions"] > \
            by_name["flush_reload"]["encryptions"]

    def test_theory_tracks_simulation(self):
        record = run("theory_validation", cases=[[1, 1], [1, 2]], runs=3)
        for cell in record["cells"]:
            assert cell["relative_error"] < 0.6

    def test_noise_sweep_recovers_under_all_levels(self):
        cells = run("noise_sweep", levels=[[0.0, 0], [0.8, 4]],
                    runs=1)["cells"]
        assert all(c["recovered"] for c in cells)
        assert cells[1]["encryptions"] >= cells[0]["encryptions"]

"""Tests for the ASCII reporting helpers."""

import pytest

from repro.analysis.reporting import (
    format_count,
    format_table,
    render_figure3,
    render_series,
    render_table1,
    render_table2,
)
from repro.engine import run_experiment


class TestFormatTable:
    def test_columns_align(self):
        text = format_table("T", ["a", "bee"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        header, divider, *rows = lines[2:]
        assert header.index("|") == rows[0].index("|")

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table("T", ["a"], [["1", "2"]])


class TestFormatCount:
    def test_thousands_separator(self):
        assert format_count(12345) == "12,345"

    def test_dropout_threshold(self):
        assert format_count(2_000_000) == ">1M"


def _figure3_cell(probing_round, use_flush, encryptions, simulated):
    return {"cell": {"probing_round": probing_round,
                     "use_flush": use_flush},
            "encryptions": encryptions, "simulated": simulated}


def _table1_cell(line_words, probing_round, encryptions, dropped_out,
                 simulated):
    return {"cell": {"line_words": line_words,
                     "probing_round": probing_round},
            "encryptions": encryptions, "dropped_out": dropped_out,
            "simulated": simulated}


class TestRenderers:
    def test_render_figure3_mentions_series(self):
        text = render_figure3({"cells": [
            _figure3_cell(1, True, 100.0, True),
            _figure3_cell(1, False, 300.0, True),
            _figure3_cell(2, True, 500.0, False),
        ]})
        assert "flush" in text
        assert "no-flush" in text
        assert "analytic" in text
        assert "100" in text

    def test_render_table1(self):
        text = render_table1({"cells": [
            _table1_cell(1, 1, 96.0, False, True),
            _table1_cell(1, 2, None, True, False),
        ]})
        assert "1 Word" in text
        assert ">1M" in text
        assert "96" in text

    def test_render_table2(self):
        text = render_table2(run_experiment("table2", use_cache=False))
        assert "single-core SoC" in text
        assert "MPSoC" in text
        assert "50 MHz" in text

    def test_render_series(self):
        text = render_series("title", ["a", "bb"], [1.0, 2_000_000.0])
        assert "title" in text
        assert ">1M" in text

    def test_render_series_validates(self):
        with pytest.raises(ValueError):
            render_series("t", ["a"], [1.0, 2.0])

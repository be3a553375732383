"""Quantitative leakage analyzer: exact per-site figures, the committed
budget gate, and the analytic-vs-measured cross-validation."""

import ast
import json
import sys
from pathlib import Path

import pytest

from repro.cache.geometry import geometry_preset
from repro.staticcheck.leakage import (
    PINNED_SEED0_ENCRYPTIONS,
    VALIDATION_SLACK,
    analyze_leakage,
    build_layout_index,
    check_budget,
    collect_layout_declarations,
    compute_budget,
    load_budget,
    main,
    write_budget,
)
from repro.targets import get_target

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SRC = REPO_ROOT / "src" / "repro"

#: A packed table with an explicit layout declaration: 16 secret values,
#: two per byte, so the low index bit never reaches the address bus.
DECLARED_PACKED = '''
from repro.staticcheck.equivalence import declare_table_layout

PACKED = (0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF)
declare_table_layout("PACKED", module=__name__, domain=16,
                     entry_bytes=1, values_per_entry=2)

def lookup(master_key):
    index = master_key & 0xF
    row = PACKED[index >> 1]
    return row & 0xF
'''

#: The same module with the packing declaration dropped to one value per
#: entry: the 16-value domain now spans 16 bytes and leaks one bit even
#: under 8-byte lines.
DECLARED_UNPACKED = DECLARED_PACKED.replace("values_per_entry=2",
                                            "values_per_entry=1")

PAPER = geometry_preset("paper")
EIGHT_BYTE_LINES = geometry_preset("paper-8word")


def write_module(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return path


class TestLayoutDiscovery:
    def test_declaration_is_statically_discoverable(self):
        tree = ast.parse(DECLARED_PACKED)
        layouts = collect_layout_declarations(tree, "fixturemod")
        assert set(layouts) == {"fixturemod.PACKED"}
        layout = layouts["fixturemod.PACKED"]
        assert (layout.domain, layout.values_per_entry) == (16, 2)

    def test_module_name_dunder_resolves_to_scanned_module(self, tmp_path):
        path = write_module(tmp_path, "packedmod.py", DECLARED_PACKED)
        index = build_layout_index([path])
        assert "packedmod.PACKED" in index

    def test_undeclared_tables_fall_back_to_inferred_shape(self, tmp_path):
        path = write_module(tmp_path, "plain.py",
                            "SBOX = tuple(range(16))\n")
        index = build_layout_index([path])
        layout = index["plain.SBOX"]
        assert (layout.domain, layout.values_per_entry) == (16, 1)

    def test_victim_sbox_declarations_are_discovered(self):
        index = build_layout_index([SRC / "gift" / "sbox.py"])
        assert "repro.gift.sbox.GIFT_SBOX" in index


class TestAnalyzeLeakage:
    def site_for(self, report, table_suffix):
        sites = [s for s in report.sites
                 if s.finding.table and s.finding.table.endswith(table_suffix)]
        assert sites, f"no site for table *{table_suffix}"
        return sites[0]

    @pytest.mark.parametrize("name", ["gift64", "present80"])
    def test_gift_sbox_computes_exactly_four_bits(self, name):
        """Each LUT victim's own traced SubCells indexes its named S-box
        table, so the shared round engine keeps the full 4-bit site."""
        target = get_target(name)
        victim_class = type(target.make_victim(0))
        package = Path(sys.modules[victim_class.__module__].__file__).parent
        report = analyze_leakage([str(package)], PAPER)
        sites = [s for s in report.sites
                 if s.finding.table == target.table_names[0]
                 and s.finding.function
                 == f"{victim_class.__name__}._sub_cells_traced"]
        assert sites, f"no {target.table_names[0]} site in _sub_cells_traced"
        for site in sites:
            assert site.bits_exact == 4.0
            assert site.bits_bound == 4.0
            assert (site.class_count, site.domain) == (16, 16)

    def test_shared_lut_engine_fast_paths_are_table_lookups(self):
        """Taint reaches the engine's fused-table loads through the
        ``@secret_attributes`` key masks alone."""
        report = analyze_leakage([str(SRC / "targets" / "lut.py")], PAPER)
        lookups = {s.finding.function for s in report.sites
                   if s.finding.kind.value == "table-lookup"}
        assert {"TracedLutCipher.encrypt",
                "TracedLutCipher.sbox_indices_by_round",
                "TracedLutCipher.sbox_index_mask"} <= lookups

    def test_reshaped_sbox_computes_exactly_zero_bits(self):
        report = analyze_leakage(
            [str(SRC / "countermeasures" / "reshaped_sbox.py")],
            EIGHT_BYTE_LINES,
        )
        site = self.site_for(report, "RESHAPED_SBOX_ROWS")
        assert site.bits_exact == 0.0
        assert site.bits_bound == 0.0
        assert site.class_count == 1

    def test_declared_packing_beats_byte_footprint_heuristic(self, tmp_path):
        path = write_module(tmp_path, "packedmod.py", DECLARED_PACKED)
        report = analyze_leakage([str(path)], PAPER)
        site = self.site_for(report, "PACKED")
        # The declaration carries the 16-value domain; the fallback
        # would have seen only the 8 physical entries.
        assert site.domain == 16
        assert site.bits_exact == 3.0

    def test_branch_sites_carry_one_bit_bound(self, tmp_path):
        path = write_module(tmp_path, "branchy.py",
                            "def f(master_key):\n"
                            "    return 1 if master_key & 1 else 0\n")
        report = analyze_leakage([str(path)], PAPER)
        branch = [s for s in report.sites
                  if s.finding.kind.value == "branch"]
        assert branch and branch[0].bits_bound == 1.0
        assert branch[0].bits_exact is None

    def test_unquantified_sites_counted_not_zeroed(self, tmp_path):
        path = write_module(tmp_path, "opaque.py",
                            "def f(master_key, mystery):\n"
                            "    return mystery[master_key & 0xF]\n")
        report = analyze_leakage([str(path)], PAPER)
        assert report.unquantified_sites == 1
        assert report.quantified_bound_bits == 0.0

    def test_report_serialises_with_preset(self, tmp_path):
        path = write_module(tmp_path, "packedmod.py", DECLARED_PACKED)
        report = analyze_leakage([str(path)], EIGHT_BYTE_LINES,
                                 preset="paper-8word")
        data = report.to_dict()
        assert data["geometry"]["preset"] == "paper-8word"
        assert data["summary"]["sites"] == len(data["sites"])


class TestBudgetGate:
    PRESETS = ("paper", "paper-8word")

    def test_budget_round_trips_and_passes_clean(self, tmp_path):
        path = write_module(tmp_path, "packedmod.py", DECLARED_PACKED)
        budget = compute_budget([str(path)], presets=self.PRESETS)
        target = tmp_path / "budget.json"
        write_budget(budget, target)
        assert check_budget(compute_budget([str(path)],
                                           presets=self.PRESETS),
                            load_budget(target)) == []

    def test_raised_bound_is_a_regression(self, tmp_path):
        path = write_module(tmp_path, "packedmod.py", DECLARED_PACKED)
        committed = compute_budget([str(path)], presets=self.PRESETS)
        # Unpacking the table raises the paper-8word bound 0.0 -> 1.0.
        path.write_text(DECLARED_UNPACKED)
        violations = check_budget(
            compute_budget([str(path)], presets=self.PRESETS), committed
        )
        assert any(v.startswith("REGRESSION[paper-8word]")
                   for v in violations)

    def test_new_site_is_a_regression(self, tmp_path):
        path = write_module(tmp_path, "packedmod.py", DECLARED_PACKED)
        committed = compute_budget([str(path)], presets=self.PRESETS)
        path.write_text(DECLARED_PACKED +
                        "\ndef extra(master_key):\n"
                        "    return PACKED[(master_key >> 4) & 0x7]\n")
        violations = check_budget(
            compute_budget([str(path)], presets=self.PRESETS), committed
        )
        assert any("new leakage site" in v for v in violations)

    def test_improvement_is_stale_not_silent(self, tmp_path):
        path = write_module(tmp_path, "packedmod.py", DECLARED_UNPACKED)
        committed = compute_budget([str(path)], presets=self.PRESETS)
        path.write_text(DECLARED_PACKED)
        violations = check_budget(
            compute_budget([str(path)], presets=self.PRESETS), committed
        )
        assert violations, "a lowered bound must demand regeneration"
        assert all(v.startswith("STALE") for v in violations)

    def test_missing_preset_is_stale(self, tmp_path):
        path = write_module(tmp_path, "packedmod.py", DECLARED_PACKED)
        committed = compute_budget([str(path)], presets=self.PRESETS)
        current = compute_budget([str(path)], presets=("paper",))
        assert any("paper-8word" in v for v in check_budget(current,
                                                            committed))

    def test_committed_repo_budget_matches_recomputation(self):
        committed_path = REPO_ROOT / "leakage-budget.json"
        if not committed_path.exists():
            pytest.skip("repo leakage budget not present")
        committed = load_budget(committed_path)
        current = compute_budget([str(SRC)],
                                 presets=tuple(committed["presets"]))
        assert check_budget(current, committed) == []


class TestCli:
    def test_default_run_reports_sites(self, tmp_path, capsys):
        path = write_module(tmp_path, "packedmod.py", DECLARED_PACKED)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "exact=3" in out

    def test_geometry_preset_flag(self, tmp_path, capsys):
        path = write_module(tmp_path, "packedmod.py", DECLARED_PACKED)
        assert main([str(path), "--geometry", "paper-8word", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["geometry"]["preset"] == "paper-8word"
        packed = [s for s in report["sites"]
                  if s["table"] and s["table"].endswith("PACKED")]
        assert packed[0]["bits_exact"] == 0.0

    def test_write_then_check_budget(self, tmp_path, capsys):
        path = write_module(tmp_path, "packedmod.py", DECLARED_PACKED)
        budget = tmp_path / "budget.json"
        assert main([str(path), "--write-budget", str(budget)]) == 0
        assert main([str(path), "--check-budget", str(budget)]) == 0
        path.write_text(DECLARED_UNPACKED)
        assert main([str(path), "--check-budget", str(budget)]) == 1

    def test_missing_budget_is_usage_error(self, tmp_path, capsys):
        path = write_module(tmp_path, "packedmod.py", DECLARED_PACKED)
        assert main([str(path), "--check-budget",
                     str(tmp_path / "absent.json")]) == 2

    def test_staticcheck_cli_dispatches_leakage(self, tmp_path, capsys):
        from repro.staticcheck.cli import main as staticcheck_main

        path = write_module(tmp_path, "packedmod.py", DECLARED_PACKED)
        assert staticcheck_main(["leakage", str(path)]) == 0
        assert "exact=3" in capsys.readouterr().out


class TestCrossValidation:
    def test_class_count_prediction_matches_pinned_recovery(self):
        from repro.analysis.theory import expected_full_key_effort

        predicted = expected_full_key_effort(get_target("gift64"),
                                             geometry_preset("paper"))
        assert predicted == 476.52974980655614
        ratio = PINNED_SEED0_ENCRYPTIONS / predicted
        assert 1.0 / VALIDATION_SLACK <= ratio <= VALIDATION_SLACK

    def test_zero_class_channel_would_predict_unbounded_effort(self):
        # One equivalence class = nothing to eliminate: the model
        # predicts no progress at any cost, guarding against reading a
        # 0-bit channel as "cheap to attack".
        from repro.analysis.theory import segment_effort

        assert segment_effort(1, 15) == float("inf")

    def test_reshaped_sbox_predicts_no_progress(self):
        from repro.analysis.theory import segment_effort
        from repro.countermeasures.reshaped_sbox import RECOMMENDED_GEOMETRY
        from repro.staticcheck.equivalence import declared_layout

        layout = declared_layout(
            "repro.countermeasures.reshaped_sbox.RESHAPED_SBOX_ROWS")
        classes = layout.partition(RECOMMENDED_GEOMETRY).class_count
        assert classes == 1
        assert segment_effort(classes, 15) == float("inf")

    def test_validate_against_measured_end_to_end(self, tmp_path,
                                                  monkeypatch):
        from repro.staticcheck.leakage import validate_against_measured

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        result = validate_against_measured(runs=2)
        assert result.failures == ()
        assert result.pinned_encryptions == PINNED_SEED0_ENCRYPTIONS
        assert [(row.target, row.scope) for row in result.rows] == [
            ("gift64", "full_key"), ("gift128", "first_round"),
            ("gift64", "first_round"), ("giftcofb", "first_round"),
            ("present80", "first_round"),
        ]
        full_key = result.rows[0]
        assert full_key.predicted_encryptions == 476.52974980655614
        assert full_key.key_bits == 128
        assert result.rows[-1].key_bits == 64
        for row in result.rows:
            assert row.class_count == 16
            assert row.measured_bits_per_encryption <= \
                row.bits_bound_per_observation

    def test_validate_cli_reports_every_target(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["--validate"]) == 0
        out = capsys.readouterr().out
        for name in ("gift64", "gift128", "present80", "giftcofb"):
            assert name in out
        assert "476.5" in out
        assert "pinned seed-0 recovery: 464 encryptions" in out

"""Every experiment attack goes through ``run_attack``: a typed attack
failure becomes a trial outcome in a valid artifact, never an exception
that aborts the sweep."""

import ast
from pathlib import Path

import pytest

import repro
from repro.core import OUTCOMES, AttackConfig
from repro.engine import render_record, run_experiment, validate_record

SRC = Path(repro.__file__).resolve().parent

#: A whole-attack budget no attack fits in.
TINY_BUDGET = 5


def _force_budget(monkeypatch, module):
    """Make every ``AttackConfig`` that ``module`` builds carry
    :data:`TINY_BUDGET`, whatever budget the experiment asks for."""
    def tiny(*args, **kwargs):
        return AttackConfig(*args,
                            **{**kwargs, "max_total_encryptions": TINY_BUDGET})

    monkeypatch.setattr(f"repro.{module}.AttackConfig", tiny)


def _attack_trials(record):
    return [trial for cell in record["cells"] for trial in cell["trials"]
            if "outcome" in trial]


#: (experiment, overrides, module whose budget is forced or None, the
#: outcome every attack trial must end in).
FORCED = [
    ("figure3", {"probing_rounds": (1,), "runs": 1}, "engine.experiments",
     "budget_exceeded"),
    ("table1", {"line_sizes": (1,), "probing_rounds": (1,), "runs": 1},
     "engine.experiments", "budget_exceeded"),
    ("full_key", {"runs": 1, "max_total_encryptions": 200}, None,
     "budget_exceeded"),
    ("probe_ablation", {"runs": 1}, "engine.ablations", "budget_exceeded"),
    ("theory_validation", {"cases": ((1, 1),), "runs": 1},
     "engine.ablations", "budget_exceeded"),
    ("replacement_policy", {"policies": "lru"}, "engine.ablations",
     "budget_exceeded"),
    ("noise_sweep", {"levels": ((0.0, 0),), "runs": 1}, "engine.ablations",
     "budget_exceeded"),
    ("taxonomy", {"timing_samples": 100}, "engine.ablations",
     "budget_exceeded"),
    ("gift128", {}, "engine.ablations", "budget_exceeded"),
    ("present_recovery",
     {"line_words": 2, "runs": 1, "probing_rounds": (1,)}, None,
     "inconsistent"),
    ("target_matrix", {}, "engine.multitarget", "budget_exceeded"),
    ("trace_replay", {"traces": "tests/corpus/gift64-seed0-first.grtr"},
     "engine.replay", "budget_exceeded"),
]


@pytest.mark.parametrize("name,overrides,module,outcome", FORCED,
                         ids=[case[0] for case in FORCED])
def test_typed_failure_is_a_trial_outcome(monkeypatch, name, overrides,
                                          module, outcome):
    if module is not None:
        _force_budget(monkeypatch, module)
    record = run_experiment(name, overrides, use_cache=False)
    validate_record(record)
    trials = _attack_trials(record)
    assert trials
    assert {t["outcome"] for t in trials} == {outcome}
    assert not any(t["recovered"] for t in trials)
    assert all(t["encryptions"] >= 0 for t in trials)
    for cell in record["cells"]:
        if any("outcome" in t for t in cell["trials"]):
            assert cell["summary"] is None
    render_record(record)


def test_first_round_failure_recovers_no_bits(monkeypatch):
    _force_budget(monkeypatch, "engine.ablations")
    record = run_experiment("probe_ablation", {"runs": 1}, use_cache=False)
    for cell in record["cells"]:
        (trial,) = cell["trials"]
        assert trial["recovered_bits"] == 0
        assert trial["encryptions"] == TINY_BUDGET
        assert cell["outcomes"] == {"budget_exceeded": 1}
        assert cell["encryptions"] is None
        assert not cell["recovered"]


def test_half_a_round_is_not_a_recovered_round():
    from repro.engine.ablations import _round_finalize

    half = {"outcome": "recovered", "recovered": True, "encryptions": 90,
            "recovered_bits": 16}
    whole = dict(half, recovered_bits=32)
    assert _round_finalize({}, {}, [whole])["recovered"]
    assert not _round_finalize({}, {}, [whole, half])["recovered"]


def test_figure3_cell_without_a_recovery_falls_back_to_the_model(
        monkeypatch):
    _force_budget(monkeypatch, "engine.experiments")
    record = run_experiment("figure3", {"probing_rounds": (1,), "runs": 1},
                            use_cache=False)
    for cell in record["cells"]:
        assert not cell["simulated"]
        assert cell["encryptions"] == cell["expected_effort"]


def test_table1_budget_exhaustion_is_a_drop_out(monkeypatch):
    _force_budget(monkeypatch, "engine.experiments")
    record = run_experiment("table1", {"line_sizes": (1,),
                                       "probing_rounds": (1,), "runs": 1},
                            use_cache=False)
    (cell,) = record["cells"]
    assert cell["simulated"] and cell["dropped_out"]
    assert cell["encryptions"] is None
    assert ">1M" in render_record(record)


def test_countermeasure_failure_mode_names_the_error(monkeypatch):
    _force_budget(monkeypatch, "countermeasures.evaluation")
    record = run_experiment("countermeasures", {"encryptions": 10},
                            use_cache=False)
    validate_record(record)
    for cell in record["cells"]:
        assert cell["attack_defeated"]
        assert cell["failure_mode"] == "BudgetExceeded"
        assert not cell["recovered_key_matches"]


def test_memory_hierarchy_exclusive_failure_keeps_its_label():
    record = run_experiment("memory_hierarchy", {}, use_cache=False)
    by_configuration = {c["cell"]["configuration"]: c
                        for c in record["cells"]}
    exclusive = by_configuration["exclusive"]
    assert exclusive["outcome"] == "inconsistent"
    assert exclusive["summary"] is None
    assert set(c["outcome"] for c in record["cells"]) <= set(OUTCOMES)
    assert "attack fails (InconsistentObservation)" in render_record(record)


def test_taxonomy_access_failure_is_not_correct(monkeypatch):
    _force_budget(monkeypatch, "engine.ablations")
    record = run_experiment("taxonomy", {"timing_samples": 100},
                            use_cache=False)
    access = record["cells"][0]
    assert access["cell"]["channel"] == "access"
    assert access["correct"] is False
    assert access["summary"] is None


class TestSingleCallSite:
    """``run_attack`` is the one place the engine and the countermeasure
    harness start an attack."""

    ENTRY_POINTS = {"attack_first_round", "recover_master_key"}

    def test_no_direct_attack_calls(self):
        offenders = []
        for package in ("engine", "countermeasures"):
            for path in sorted((SRC / package).rglob("*.py")):
                tree = ast.parse(path.read_text(), filename=str(path))
                offenders.extend(
                    f"{path.relative_to(SRC)}:{node.lineno}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.ENTRY_POINTS
                )
        assert offenders == []

    def test_the_runner_lives_in_core(self):
        source = (SRC / "core" / "outcome.py").read_text()
        calls = {node.func.attr for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)}
        assert self.ENTRY_POINTS <= calls

"""Parallel trial execution: determinism at any worker count."""

import os
import time

import pytest

from repro.engine import run_experiment
from repro.engine.budget import FULL_EFFORT, QUICK_EFFORT, full_mode
from repro.engine.executor import ExecutionStats, build_tasks
from repro.engine.registry import get
from repro.seeding import trial_seed

#: A deliberately small Fig. 3 sweep — a few hundred encryptions total.
SMALL_SWEEP = {"probing_rounds": (1, 2), "runs": 2}


class TestBuildTasks:
    def test_seeds_are_position_independent(self):
        experiment = get("figure3")
        params = experiment.spec.resolve(SMALL_SWEEP)
        plan = experiment.plan(params)
        tasks = build_tasks(experiment, params, plan)
        # Every task's seed is re-derivable from its own coordinates
        # alone — nothing about the task list's length or order enters.
        for cell_index, (name, task_params, cell, trial_index, seed) in tasks:
            assert seed == trial_seed(name, task_params, cell, trial_index)
            assert plan[cell_index].cell == cell

    def test_trial_counts_follow_the_plan(self):
        experiment = get("figure3")
        params = experiment.spec.resolve(SMALL_SWEEP)
        plan = experiment.plan(params)
        tasks = build_tasks(experiment, params, plan)
        assert len(tasks) == sum(cell_plan.trials for cell_plan in plan)


class TestWorkerDeterminism:
    def test_parallel_equals_serial(self):
        serial = run_experiment("figure3", SMALL_SWEEP, workers=1,
                                use_cache=False)
        parallel = run_experiment("figure3", SMALL_SWEEP, workers=2,
                                  use_cache=False)
        assert serial["cells"] == parallel["cells"]
        assert serial["summary"] == parallel["summary"]
        assert parallel["telemetry"]["workers"] == 2

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            run_experiment("figure3", SMALL_SWEEP, workers=0,
                           use_cache=False)


@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup needs >= 4 physical cores")
def test_four_workers_halve_the_wall_clock():
    """ISSUE acceptance: >= 2x speedup at 4 workers on a quick sweep."""
    sweep = {"runs": 4}

    def timed(workers):
        started = time.perf_counter()
        run_experiment("table1", sweep, workers=workers, use_cache=False)
        return time.perf_counter() - started

    serial, parallel = timed(1), timed(4)
    assert parallel < serial / 2.0


class TestExecutionStats:
    def test_trials_per_s(self):
        assert ExecutionStats(trials=10, workers=1,
                              wall_time_s=2.0).trials_per_s == 5.0

    def test_zero_wall_time(self):
        assert ExecutionStats(trials=10, workers=1,
                              wall_time_s=0.0).trials_per_s == 0.0


class TestBudget:
    def test_quick_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not full_mode()

    def test_repro_full_selects_the_drop_out_budget(self, monkeypatch):
        from repro.engine.budget import simulated_effort_budget

        monkeypatch.setenv("REPRO_FULL", "1")
        assert full_mode()
        assert simulated_effort_budget() == FULL_EFFORT
        monkeypatch.setenv("REPRO_FULL", "0")
        assert simulated_effort_budget() == QUICK_EFFORT

    def test_effort_budget_scales_the_model(self):
        from repro.engine.budget import effort_budget

        # The E14/E15/E20 defaults: factor x round-1 or full-key effort.
        assert effort_budget({"budget_factor": 4.0, "line_words": 1}) == 1906
        assert effort_budget({"budget_factor": 100.0, "line_words": 1,
                              "scope": "first_round"}) == 11913
        assert effort_budget({"budget_factor": 100.0,
                              "line_words": 2}) == 117683

    def test_one_class_geometry_has_no_budget(self):
        from repro.engine.budget import effort_budget

        with pytest.raises(ValueError, match="line_words=16"):
            effort_budget({"budget_factor": 4.0, "line_words": 16})

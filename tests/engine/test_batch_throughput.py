"""E19 — the batch-throughput experiment over the execution fabric."""

import pytest

from repro.engine import get as get_experiment, run_experiment
from repro.engine.batchperf import DEFAULT_TARGETS, _plan

SMALL = {"blocks": 48, "batch_size": 16, "traced_blocks": 8}


class TestRegistration:
    def test_resolvable_by_name_id_and_alias(self):
        for key in ("batch_throughput", "E19", "batch-throughput",
                    "batchperf", "e19"):
            assert get_experiment(key).name == "batch_throughput"

    def test_default_targets_are_the_bitsliced_ones(self):
        assert DEFAULT_TARGETS == ("gift64", "gift128", "present80")


class TestPlan:
    def test_one_cell_per_target(self):
        plans = _plan({"targets": "gift64,present80", "blocks": 16,
                       "batch_size": 4})
        assert [plan.cell["target"] for plan in plans] \
            == ["gift64", "present80"]
        assert all(plan.trials == 1 for plan in plans)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            _plan({"targets": " , ", "blocks": 16, "batch_size": 4})

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            _plan({"targets": "gift64", "blocks": 0, "batch_size": 4})
        with pytest.raises(ValueError):
            _plan({"targets": "gift64", "blocks": 16, "batch_size": 0})


class TestRun:
    def test_equivalence_asserted_for_all_targets(self):
        record = run_experiment("batch_throughput", SMALL,
                                use_cache=False)
        assert record["summary"]["targets"] == len(DEFAULT_TARGETS)
        assert record["summary"]["all_equivalent"] is True
        assert record["summary"]["vectorized_targets"] \
            == len(DEFAULT_TARGETS)
        for cell in record["cells"]:
            assert cell["equivalent"] is True
            assert cell["traced_equivalent"] is True
            assert cell["blocks"] == SMALL["blocks"]
            assert len(cell["checksum"]) == 16

    def test_scalar_fallback_target_passes_too(self):
        record = run_experiment(
            "batch_throughput", {**SMALL, "targets": "giftcofb"},
            use_cache=False,
        )
        cell = record["cells"][0]
        assert cell["vectorized"] is False
        assert cell["equivalent"] is True

    def test_deterministic_at_any_worker_count(self):
        # Per-trial seeds fold in only experiment/params/cell/index, so
        # the whole record's cells are bit-identical however the fan-out
        # is scheduled.
        solo = run_experiment("batch_throughput", SMALL, use_cache=False)
        fanned = run_experiment("batch_throughput", SMALL, workers=2,
                                use_cache=False)
        assert solo["cells"] == fanned["cells"]
        assert solo["summary"] == fanned["summary"]

    def test_untimed_runs_record_no_clock_fields(self):
        record = run_experiment("batch_throughput",
                                {**SMALL, "targets": "gift64"},
                                use_cache=False)
        cell = record["cells"][0]
        assert "batch_blocks_per_s" not in cell
        assert "speedup" not in cell

    def test_timed_opt_in_records_throughput(self):
        record = run_experiment(
            "batch_throughput",
            {**SMALL, "targets": "gift64", "timed": True},
            use_cache=False,
        )
        cell = record["cells"][0]
        assert cell["batch_blocks_per_s"] > 0
        assert cell["scalar_blocks_per_s"] > 0
        assert cell["speedup"] > 0

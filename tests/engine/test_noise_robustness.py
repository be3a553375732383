"""E14 (noise robustness) engine integration: determinism and caching."""

import pytest

from repro.engine import run_experiment, validate_record
from repro.engine.params import Param, spec
from repro.engine.registry import get

#: A deliberately small E14 sweep: two cells, two trials each.
SMALL_SWEEP = {
    "runs": 2,
    "miss_probabilities": [0.0, 0.2],
    "eviction_rates": [0.0],
}


class TestRegistration:
    def test_resolvable_by_name_id_and_alias(self):
        assert get("noise_robustness").experiment_id == "E14"
        assert get("E14").name == "noise_robustness"
        assert get("noise-robustness").name == "noise_robustness"

    def test_float_list_params_parse_cli_strings(self):
        experiment = get("noise_robustness")
        param = experiment.spec.get("miss_probabilities")
        assert param.parse("0.0,0.25") == (0.0, 0.25)
        assert experiment.spec.get("eviction_rates").parse("0.5") == (0.5,)

    def test_float_list_rejects_non_numbers(self):
        with pytest.raises((TypeError, ValueError)):
            spec(Param("xs", "float_list", (0.0,), "test")).resolve(
                {"xs": ("a", "b")}
            )


class TestWorkerDeterminism:
    def test_parallel_equals_serial(self):
        serial = run_experiment("noise_robustness", SMALL_SWEEP,
                                workers=1, use_cache=False)
        parallel = run_experiment("noise_robustness", SMALL_SWEEP,
                                  workers=2, use_cache=False)
        assert serial["cells"] == parallel["cells"]
        assert serial["summary"] == parallel["summary"]
        assert parallel["telemetry"]["workers"] == 2


class TestRecord:
    def test_record_is_schema_valid_with_confidence(self):
        record = run_experiment("noise_robustness", SMALL_SWEEP,
                                workers=1, use_cache=False)
        validate_record(record)
        lossless, lossy = record["cells"]
        assert lossless["success_rate"] == 1.0
        # Lossless voting telemetry pins full confidence; the lossy
        # cell reports the (lower) minimum over its trials.
        assert lossless["confidence"]["min"] == 1.0
        if lossy["confidence"] is not None:
            assert lossy["confidence"]["min"] <= 1.0
        assert record["summary"]["budget"] == lossless["budget"]

    def test_second_run_is_a_cache_hit(self, tmp_path):
        first = run_experiment("noise_robustness", SMALL_SWEEP,
                               workers=1, cache_root=tmp_path)
        assert first["telemetry"]["cache"] == "miss"
        second = run_experiment("noise_robustness", SMALL_SWEEP,
                                workers=2, cache_root=tmp_path)
        assert second["telemetry"]["cache"] == "hit"
        assert second["cells"] == first["cells"]

    def test_render_mentions_budget(self):
        experiment = get("noise_robustness")
        record = run_experiment("noise_robustness", SMALL_SWEEP,
                                workers=1, use_cache=False)
        table = experiment.render(record)
        assert "E14" in table
        assert "1,906" in table


class TestPlanValidation:
    @pytest.mark.parametrize("overrides", [
        {"runs": 0},
        # A certain miss leaves no channel to attack through.
        {"miss_probabilities": [0.0, 1.0]},
        {"miss_probabilities": [-0.1]},
    ])
    def test_rejected_before_any_trial(self, overrides):
        plan = get("noise_robustness").plan
        params = {**SMALL_SWEEP, **overrides}
        with pytest.raises(ValueError):
            plan(params)

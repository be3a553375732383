"""The JSON result-artifact schema and its validator."""

import copy

import pytest

from repro.core.attack import GrinchAttack
from repro.core.config import AttackConfig
from repro.engine import run_experiment
from repro.engine.artifact import (
    OUTCOMES,
    SCHEMA_ID,
    ArtifactSchemaError,
    outcome_tally,
    run_attack,
    trial_summary,
    validate_record,
)
from repro.seeding import derive_key
from repro.targets.gift import TracedGift64


@pytest.fixture(scope="module")
def record():
    """A real (small) engine record to mutate in the schema tests."""
    return run_experiment("table2", {"frequencies_mhz": (25,)},
                          use_cache=False)


class TestValidateRecord:
    def test_real_record_validates(self, record):
        validate_record(record)

    def test_schema_id_is_versioned(self, record):
        assert record["schema"] == SCHEMA_ID == "repro.engine/result/v1"

    @pytest.mark.parametrize("field", [
        "schema", "experiment", "experiment_id", "title",
        "params", "cells", "summary", "telemetry",
    ])
    def test_missing_top_level_field_rejected(self, record, field):
        broken = copy.deepcopy(record)
        del broken[field]
        with pytest.raises(ArtifactSchemaError):
            validate_record(broken)

    def test_wrong_schema_id_rejected(self, record):
        broken = copy.deepcopy(record)
        broken["schema"] = "repro.engine/result/v0"
        with pytest.raises(ArtifactSchemaError):
            validate_record(broken)

    def test_cell_without_coordinates_rejected(self, record):
        broken = copy.deepcopy(record)
        del broken["cells"][0]["cell"]
        with pytest.raises(ArtifactSchemaError):
            validate_record(broken)

    def test_bad_cache_state_rejected(self, record):
        broken = copy.deepcopy(record)
        broken["telemetry"]["cache"] = "stale"
        with pytest.raises(ArtifactSchemaError):
            validate_record(broken)

    @pytest.mark.parametrize("field", [
        "workers", "trials_total", "wall_time_s", "trials_per_s",
        "cache_key", "code_fingerprint",
    ])
    def test_missing_telemetry_field_rejected(self, record, field):
        broken = copy.deepcopy(record)
        del broken["telemetry"][field]
        with pytest.raises(ArtifactSchemaError):
            validate_record(broken)

    def test_record_is_json_round_trippable(self, record):
        import json

        validate_record(json.loads(json.dumps(record)))


class TestTrialSummary:
    def test_empty_is_none(self):
        assert trial_summary([]) is None

    def test_stats(self):
        summary = trial_summary([1, 2, 3])
        assert summary == {"mean": 2.0, "min": 1.0, "max": 3.0, "n": 3}


class TestRunAttack:
    """The one outcome classifier behind E14, E15 and E20."""

    @staticmethod
    def _attack(**config):
        planted = derive_key(128, 0)
        victim = TracedGift64(planted)
        return GrinchAttack(victim, AttackConfig(seed=0, **config)), planted

    def test_full_key_recovers_the_seed0_pin(self):
        attack, planted = self._attack()
        ended = run_attack(attack, "full_key", planted)
        assert ended.outcome == "recovered"
        assert ended.encryptions == 464
        assert ended.result.master_key == planted

    def test_other_planted_key_is_a_wrong_key(self):
        attack, planted = self._attack()
        ended = run_attack(attack, "full_key", planted ^ 1)
        assert ended.outcome == "wrong_key"
        assert not ended.recovered

    def test_budget_exhaustion_is_classified(self):
        attack, planted = self._attack(max_total_encryptions=50)
        ended = run_attack(attack, "first_round", planted)
        assert ended.outcome == "budget_exceeded"
        assert ended.encryptions == 50
        assert ended.trial(extra=1) == {
            "outcome": "budget_exceeded", "recovered": False,
            "encryptions": 50, "extra": 1,
        }

    def test_tally_counts_every_outcome(self):
        trials = [{"outcome": "recovered", "recovered": True,
                   "encryptions": 100},
                  {"outcome": "recovered", "recovered": True,
                   "encryptions": 200},
                  {"outcome": "low_confidence", "recovered": False,
                   "encryptions": 900}]
        tally = outcome_tally(trials)
        assert set(tally["outcomes"]) <= set(OUTCOMES)
        assert tally["outcomes"] == {"recovered": 2, "low_confidence": 1}
        assert tally["success_rate"] == pytest.approx(2 / 3)
        assert tally["summary"]["mean"] == 150.0


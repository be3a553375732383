"""E12 (memory hierarchy): each cell's outcome label follows its key
comparison, and the table words it as before."""

import dataclasses

import pytest

from repro.core.attack import GrinchAttack
from repro.engine.ablations import _hierarchy_render, _hierarchy_trial

PARAMS = {"seed": 41, "blind_segment_budget": 500}


def rendered(configuration, record):
    return _hierarchy_render({"cells": [
        {"cell": {"configuration": configuration}, **record}]})


@pytest.mark.parametrize("configuration", ["baseline", "inclusive"])
class TestOutcomeLabel:
    def test_recovered_key_is_labelled_recovered(self, configuration):
        record = _hierarchy_trial(PARAMS, {"configuration": configuration},
                                  0, 7)
        assert record["recovered"] is True
        assert record["outcome"] == "recovered"
        assert (f"key recovered, {record['encryptions']} encryptions"
                in rendered(configuration, record))

    def test_wrong_key_is_labelled_wrong(self, configuration, monkeypatch):
        recover = GrinchAttack.recover_master_key

        def off_by_one_bit(self):
            result = recover(self)
            return dataclasses.replace(result,
                                       master_key=result.master_key ^ 1)

        monkeypatch.setattr(GrinchAttack, "recover_master_key",
                            off_by_one_bit)
        record = _hierarchy_trial(PARAMS, {"configuration": configuration},
                                  0, 7)
        assert record["recovered"] is False
        assert record["outcome"] == "wrong_key"
        assert (f"WRONG KEY, {record['encryptions']} encryptions"
                in rendered(configuration, record))

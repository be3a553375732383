"""E2 — Table I: required encryptions vs. cache line size.

Regenerates the full 4x5 grid (engine-backed, with the paper's >1M
drop-out rule) and benchmarks one representative Monte-Carlo cell per
line size.
"""

import pytest

from repro.cache import CacheGeometry
from repro.core import AttackConfig, GrinchAttack
from repro.engine import derive_key, render_record, run_experiment
from repro.engine.budget import simulated_effort_budget
from repro.gift import TracedGift64


def test_table1_regeneration(publish):
    """Regenerate Table I and check its qualitative structure."""
    record = run_experiment(
        "table1",
        {"runs": 2, "max_simulated_effort": simulated_effort_budget()},
        use_cache=False,
    )
    publish("table1_cache_line_sweep", render_record(record))
    cell = {(c["cell"]["line_words"], c["cell"]["probing_round"]): c
            for c in record["cells"]}

    # Effort grows along both axes until the >1M drop-outs; the
    # drop-out triangle matches the paper's.
    assert cell[1, 1]["encryptions"] < cell[1, 5]["encryptions"]
    assert cell[1, 1]["encryptions"] < cell[4, 1]["encryptions"]
    assert cell[2, 5]["dropped_out"]
    assert cell[4, 3]["dropped_out"]
    assert cell[8, 2]["dropped_out"]
    assert not cell[1, 5]["dropped_out"]


@pytest.mark.parametrize("line_words", [1, 2])
def test_table1_cell_benchmark(benchmark, line_words):
    """Benchmark the (line_words, probing round 1) cell."""
    victim = TracedGift64(derive_key(128, "bench-table1", line_words))
    config = AttackConfig(
        seed=9,
        geometry=CacheGeometry(line_words=line_words),
        max_total_encryptions=None,
    )

    result = benchmark(
        lambda: GrinchAttack(victim, config).attack_first_round()
    )
    assert result.encryptions > 0

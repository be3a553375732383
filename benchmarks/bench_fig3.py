"""E1 — Fig. 3: required encryptions to break the first GIFT round.

Regenerates both series (with and without flush) through the experiment
engine and benchmarks the experiment unit (one first-round attack at the
paper's best case: probing round 1, flush enabled).
"""

from repro.analysis import figure3_series
from repro.core import AttackConfig, GrinchAttack
from repro.engine import derive_key, render_record, run_experiment
from repro.engine.budget import simulated_effort_budget
from repro.gift import TracedGift64


def test_fig3_regeneration(publish):
    """Regenerate Fig. 3 and check its two qualitative claims."""
    record = run_experiment(
        "figure3",
        {"runs": 2, "max_simulated_effort": simulated_effort_budget()},
        use_cache=False,
    )
    publish("fig3_first_round_effort", render_record(record))

    for use_flush in (True, False):
        efforts = [c["encryptions"] for c in figure3_series(record, use_flush)]
        assert efforts == sorted(efforts), "effort must grow with probing round"
    for with_flush, without in zip(figure3_series(record, True),
                                   figure3_series(record, False)):
        assert without["encryptions"] > with_flush["encryptions"]


def test_fig3_round1_attack_benchmark(benchmark):
    """Benchmark one bar: the round-1-probing first-round attack."""
    victim = TracedGift64(derive_key(128, "bench-fig3", 1))

    def attack_once():
        return GrinchAttack(
            victim, AttackConfig(seed=3, max_total_encryptions=None)
        ).attack_first_round()

    result = benchmark(attack_once)
    assert result.recovered_bits == 32


def test_fig3_no_flush_attack_benchmark(benchmark):
    """Benchmark the matching "Grinch without Flush" bar."""
    victim = TracedGift64(derive_key(128, "bench-fig3", 2))

    def attack_once():
        return GrinchAttack(
            victim,
            AttackConfig(seed=3, use_flush=False,
                         max_total_encryptions=None),
        ).attack_first_round()

    result = benchmark(attack_once)
    assert result.recovered_bits == 32

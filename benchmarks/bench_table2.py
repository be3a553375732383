"""E3 — Table II: the round each platform actually probes.

Regenerates both platform rows at 10/25/50 MHz and benchmarks the two
event-driven platform simulations.
"""

from repro.analysis import table2_rows
from repro.engine import render_record, run_experiment
from repro.soc import ClockDomain, MPSoC, SingleCoreSoC


def test_table2_regeneration(publish):
    """Regenerate Table II; the values match the paper exactly."""
    record = run_experiment("table2", use_cache=False)
    publish("table2_platform_probing", render_record(record))

    assert table2_rows(record) == [
        ["single-core SoC", "2", "4", "8"],
        ["MPSoC", "1", "1", "1"],
    ]


def test_single_core_simulation_benchmark(benchmark):
    report = benchmark(
        lambda: SingleCoreSoC(ClockDomain(25e6)).run_attack_window()
    )
    assert report.probed_round == 4


def test_mpsoc_simulation_benchmark(benchmark):
    report = benchmark(
        lambda: MPSoC(ClockDomain(50e6)).run_attack_window()
    )
    assert report.probed_round == 1

#!/usr/bin/env python3
"""Table II study: when can the attacker actually probe?

Simulates the paper's two FPGA platforms with the event-driven SoC
models and reports the round each configuration manages to probe —
Table II — plus the latency budget behind every number (RTOS quantum vs.
round duration on the single core; NoC round-trip vs. round duration on
the MPSoC).

Run:  python examples/soc_timing_study.py
"""

from repro.engine import render_record, run_experiment
from repro.soc import (
    PAPER_FREQUENCIES_HZ,
    PAPER_QUANTUM_S,
    ClockDomain,
    MPSoC,
    SingleCoreSoC,
)


def main() -> None:
    print(render_record(run_experiment("table2", use_cache=False)))
    print()

    print("Single-core SoC: the attacker's only window is the RTOS")
    print(f"preemption after one {PAPER_QUANTUM_S * 1e3:.0f} ms quantum.")
    for frequency in PAPER_FREQUENCIES_HZ:
        clock = ClockDomain(frequency)
        report = SingleCoreSoC(clock).run_attack_window()
        rounds_per_quantum = PAPER_QUANTUM_S / report.round_duration_s
        print(f"  {clock.describe():>7}: round lasts "
              f"{report.round_duration_s * 1e3:5.2f} ms "
              f"({rounds_per_quantum:5.2f} rounds/quantum) "
              f"-> probed round {report.probed_round} "
              f"({'practical' if report.practical else 'impractical'})")

    print("\nMPSoC: the attacker owns a tile and probes the shared cache")
    print("over the mesh NoC (XY routing) while the victim computes.")
    for frequency in PAPER_FREQUENCIES_HZ:
        clock = ClockDomain(frequency)
        soc = MPSoC(clock)
        report = soc.run_attack_window()
        per_access = soc.noc.remote_access_seconds(
            soc.attacker_tile, soc.cache_tile, clock
        )
        print(f"  {clock.describe():>7}: remote access "
              f"{per_access * 1e9:6.0f} ns, full probe sweep "
              f"{report.probe_latency_s * 1e6:7.1f} us "
              f"<< round {report.round_duration_s * 1e3:5.2f} ms "
              f"-> probed round {report.probed_round}")

    print("\nPaper cross-check (Section IV-B3): ~400 ns per remote access")
    print("at 50 MHz and ~1.2 ms between rounds — the simulated values")
    print("above are calibrated to those observations (EXPERIMENTS.md).")


if __name__ == "__main__":
    main()

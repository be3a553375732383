#!/usr/bin/env python3
"""Table I study: how the cache line size throttles GRINCH.

Regenerates the paper's Table I (encryptions to attack the first round
for line sizes of 1/2/4/8 words and probing rounds 1-5, with the >1M
drop-out rule) and explains each mechanism with the analytic model:

* wider lines mean fewer monitored lines, so spurious accesses cover
  them all more quickly — elimination slows exponentially;
* wider lines also hide the low index bits, leaving up to 4 key-bit
  candidates per segment (Section III-D).

Run:  python examples/cache_geometry_study.py          (quick)
      REPRO_FULL=1 python examples/cache_geometry_study.py
"""

import os

from repro.analysis.theory import (
    absence_probability,
    class_count,
    expected_first_round_effort,
    practical_probing_round_limit,
    visible_noise_accesses,
)
from repro.cache.geometry import CacheGeometry
from repro.engine import render_record, run_experiment
from repro.targets import get_target


def main() -> None:
    full = os.environ.get("REPRO_FULL", "") not in ("", "0")
    budget = 1_500_000.0 if full else 20_000.0

    record = run_experiment(
        "table1", {"runs": 2, "max_simulated_effort": budget},
        use_cache=False,
    )
    print(render_record(record))
    print("\n('~' cells are analytic-model projections; set REPRO_FULL=1 "
          "to simulate them.)\n")

    print("Mechanism, per the analytic model")
    print("---------------------------------")
    gift64 = get_target("gift64")
    for line_words in (1, 2, 4, 8):
        geometry = CacheGeometry(line_words=line_words)
        lines = class_count(gift64, geometry)
        p = absence_probability(lines, visible_noise_accesses(gift64, 1))
        effort = expected_first_round_effort(gift64, geometry, 1)
        limit = practical_probing_round_limit(gift64, geometry)
        print(f"{line_words} word(s)/line: {lines:>2} monitored lines, "
              f"P(line absent per window) = {p:.2e}, "
              f"round-1 effort ~ {effort:,.0f}, "
              f"practical through probing round "
              f"{limit if limit else '-'}")

    print("\nResidual key ambiguity per segment (Section III-D):")
    for line_words in (1, 2, 4, 8):
        hidden_bits = {1: 0, 2: 1, 4: 2, 8: 2}[line_words]
        print(f"  {line_words} word(s)/line -> {2 ** hidden_bits} "
              f"candidate key-bit pairs per segment")
    print("\nGRINCH resolves the residue by carrying candidates into the "
          "next round's consistency tests (repro.core.attack).")


if __name__ == "__main__":
    main()

"""Host-speed reference loop for calibrating host-time metrics.

The sandbox this benchmark was sized on changes speed by tens of
percent on identical code, and within a tenth of a second.  Every host-time
metric is therefore rescaled by how fast this fixed pure-Python loop ran
next to the attacks it calibrates: ``calibrated = raw * REF_NOMINAL_MS /
measured_ms``.  The loop imitates the simulator's operation mix (integer
bit twiddling, dict lookups in small cache sets, frozenset building) so
that a slower host slows it by the same factor as the attacks.

The loop and the nominal constant are part of the benchmark definition:
changing either changes every calibrated number, so they change only in
a change that re-measures the baseline.
"""

from __future__ import annotations

import time

#: The loop's typical time on the reference box (2 vCPU sandbox,
#: CPython 3.11.7), where the median over many runs sat between 9.4 and
#: 10.9 ms; calibrated metrics read "as if the host ran at that speed".
REF_NOMINAL_MS = 10.0

_MASK64 = (1 << 64) - 1
_STEPS = 3_500


def reference_work(steps: int = _STEPS) -> int:
    """Run the fixed reference workload; returns a checksum."""
    sets = [{} for _ in range(64)]
    state = 0x0123456789ABCDEF
    hits = 0
    checksum = 0
    for step in range(steps):
        state = (state * 6364136223846793005 + 1442695040888963407) & _MASK64
        line = (state >> 33) & 1023
        ways = sets[line & 63]
        tag = line >> 6
        if tag in ways:
            hits += 1
        elif len(ways) >= 4:
            del ways[min(ways, key=ways.get)]
        ways[tag] = step
        nibbles = frozenset((state >> (4 * k)) & 0xF for k in range(8))
        checksum ^= len(nibbles) << (step & 7)
    return hits ^ checksum


def time_reference() -> float:
    """Wall time of one reference run, in milliseconds."""
    start = time.perf_counter()
    reference_work()
    return (time.perf_counter() - start) * 1000.0


if __name__ == "__main__":
    # The set-up reference: a fresh interpreter that imports numpy, as
    # every benchmark worker does, and runs the loop once.  ``run.py``
    # times it from spawn to exit to calibrate ``setup_s``.
    import numpy  # noqa: F401

    reference_work()

"""The five workloads of the end-to-end GRINCH benchmark.

Every workload attacks GIFT-64 victims with Flush+Reload under the
paper's cache geometry.  Attack ``i`` of seed ``S`` plants the key
``derive_key(128, "bench-e2e", S, i)`` in every workload, so the
workloads share keys and differ only in how the attacker observes.

``prefix`` attacks always run, however long they take; the exact
effort metrics (encryption counts, attempts) come from them alone, so
they repeat bit for bit for a given seed on any host.  After the prefix
a run keeps attacking until its time budget is spent, and the host-time
metrics use every attack it made.  ``trace_prefix`` plays the same role
in a traced run.  The prefixes take about 8 s of a 15 s run on the
reference box at its usual speed, so that a host twice as slow still
ends them in about 16 s.

This module holds data only; it imports nothing from ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see the README's workload table)."""

    name: str
    #: ``"full_key"`` runs ``recover_master_key``, ``"first_round"``
    #: runs ``attack_first_round``.
    entry: str
    prefix: int
    trace_prefix: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Why each workload exists: BENCHMARK.json and the README.
        Workload("fast_fullkey", "full_key", prefix=200, trace_prefix=75),
        Workload("fullsim_fullkey", "full_key", prefix=30, trace_prefix=12),
        Workload("lossy_fullkey", "full_key", prefix=50, trace_prefix=20),
        Workload("batch_fullkey", "full_key", prefix=75, trace_prefix=30),
        Workload("crosscore_firstround", "first_round", prefix=90,
                 trace_prefix=40),
    )
}

"""E16/E17 — the attack pipeline generalised over cipher targets.

The :class:`~repro.targets.CipherTarget` refactor de-GIFTed the GRINCH
pipeline; these experiments are its proof obligations:

* **E16 (``present_recovery``)** ports the attack to PRESENT-80
  end-to-end: full 80-bit master-key recovery through the unchanged
  L1–L4 channel stack, swept over probing rounds like Fig. 3.
  PRESENT adds the key *before* the S-box layer, so its targets sit in
  the attacked round itself (``probe_round_offset = 0``) and round 1
  needs no crafting at all — the crafted-plaintext machinery only
  engages from round 2.  The sweep is over probing rounds rather than
  line sizes: PRESENT's P-layer sends all four output bits of round-1
  nibble ``q`` to index-bit offset ``q mod 4`` of round-2 nibbles, so
  with multi-word lines the nibbles with ``q % 4 < log2(line_words)``
  are *structurally* unobservable through round 2 and the full-key
  assembly cannot disambiguate them — a real cipher-structure
  difference from GIFT that docs/targets.md discusses.
* **E17 (``target_matrix``)** is the registry smoke: a seeded
  first-round attack per registered target, asserting every target's
  declared layout, crafting algorithm and key algebra hold together
  under the default geometry.  This is the CI gate that a new target
  registration is actually attackable, not just importable.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from ..cache.geometry import CacheGeometry
from ..core.attack import GrinchAttack
from ..core.config import AttackConfig
from ..core.outcome import run_attack
from ..targets.registry import get_target, target_names
from .artifact import key_recovery_finalize, outcome_tally
from .experiments import first_round_trial
from .params import Param, spec
from .registry import CellPlan, Experiment, register
from ..seeding import derive_key

# ----------------------------------------------------------------------
# E16 — full PRESENT-80 key recovery vs. cache line size
# ----------------------------------------------------------------------

_PRESENT_SPEC = spec(
    Param("probing_rounds", "int_list", (1, 2, 3),
          "cache probing rounds to sweep (Fig. 3 style)"),
    Param("runs", "int", 3, "Monte-Carlo repetitions per cell"),
    Param("line_words", "int", 1, "cache line size in S-box words"),
    Param("seed", "int", 16, "base seed of the sweep"),
)


def _present_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    if params["runs"] < 1:
        raise ValueError(f"runs must be positive, got {params['runs']}")
    return [
        CellPlan(cell={"probing_round": probing_round},
                 trials=params["runs"])
        for probing_round in params["probing_rounds"]
    ]


def _present_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                   trial_index: int, seed: int) -> Dict[str, Any]:
    target = get_target("present80")
    config = AttackConfig(
        geometry=CacheGeometry(line_words=params["line_words"]),
        probing_round=cell["probing_round"],
        seed=seed,
    )
    planted = derive_key(target.key_bits, seed)
    attack = GrinchAttack(target.make_victim(planted), config)
    return run_attack(attack, "full_key", planted).trial()


def _present_summarize(params: Mapping[str, Any],
                       cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "cells": len(cells),
        "all_recovered": all(c["all_recovered"] for c in cells),
        "mean_encryptions": (
            cells[0]["summary"]["mean"] if cells and cells[0]["summary"]
            else None
        ),
    }


def _present_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_table

    rows = []
    for cell in record["cells"]:
        summary = cell["summary"]
        rows.append([
            str(cell["cell"]["probing_round"]),
            "yes" if cell["all_recovered"] else "NO",
            f"{summary['mean']:,.0f}" if summary else "-",
        ])
    return format_table(
        "E16 — Full PRESENT-80 key recovery vs. probing round",
        ["Probing round", "All recovered", "Mean encryptions"],
        rows,
    )


register(Experiment(
    name="present_recovery",
    experiment_id="E16",
    title="GRINCH on PRESENT-80: full key recovery through the "
          "target-generic pipeline",
    spec=_PRESENT_SPEC,
    plan=_present_plan,
    trial=_present_trial,
    finalize=key_recovery_finalize,
    summarize=_present_summarize,
    render=_present_render,
    aliases=("present-recovery", "e16"),
))


# ----------------------------------------------------------------------
# E17 — first-round smoke across every registered target
# ----------------------------------------------------------------------

_MATRIX_SPEC = spec(
    Param("runs", "int", 1, "Monte-Carlo repetitions per target"),
    Param("line_words", "int", 1, "cache line size in S-box words"),
    Param("seed", "int", 17, "base seed of the sweep"),
)


def _matrix_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    if params["runs"] < 1:
        raise ValueError(f"runs must be positive, got {params['runs']}")
    return [
        CellPlan(cell={"target": name}, trials=params["runs"])
        for name in target_names()
    ]


def _matrix_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                  trial_index: int, seed: int) -> Dict[str, Any]:
    target = get_target(cell["target"])
    config = AttackConfig(
        geometry=CacheGeometry(line_words=params["line_words"]),
        seed=seed,
    )
    return {**first_round_trial(seed, config, target=cell["target"]),
            "bits_per_round": target.bits_per_round}


def _matrix_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                     trials: List[Any]) -> Dict[str, Any]:
    return {
        "cell": cell,
        "trials": trials,
        "all_full_rounds": all(
            t["recovered_bits"] == t["bits_per_round"] for t in trials
        ),
        "summary": outcome_tally(trials)["summary"],
    }


def _matrix_summarize(params: Mapping[str, Any],
                      cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "targets": [c["cell"]["target"] for c in cells],
        "all_full_rounds": all(c["all_full_rounds"] for c in cells),
    }


def _matrix_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_table

    rows = []
    for cell in record["cells"]:
        summary = cell["summary"]
        rows.append([
            cell["cell"]["target"],
            "yes" if cell["all_full_rounds"] else "NO",
            f"{summary['mean']:,.0f}" if summary else "-",
        ])
    return format_table(
        "E17 — First-round attack across registered targets",
        ["Target", "Full round-1 bits", "Mean encryptions"],
        rows,
    )


register(Experiment(
    name="target_matrix",
    experiment_id="E17",
    title="Target-matrix smoke: seeded first-round attack per "
          "registered cipher target",
    spec=_MATRIX_SPEC,
    plan=_matrix_plan,
    trial=_matrix_trial,
    finalize=_matrix_finalize,
    summarize=_matrix_summarize,
    render=_matrix_render,
    aliases=("target-matrix", "e17"),
))

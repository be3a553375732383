"""E14 — lossy-channel robustness sweep.

Sweeps the false-negative channel (per-probe miss probability x
co-runner eviction rate) and measures whether the voting-based
recovery still assembles and verifies the full 128-bit master key
within a bounded encryption budget.  The budget is expressed as a
multiple (``budget_factor``) of the analytic *lossless* full-key
effort, so every cell answers the question "how much loss can the
attack absorb at a fixed cost multiplier?".

A trial can end five ways, all reported per cell:

* ``recovered`` — the verified master key matched the planted one;
* ``wrong_key`` — verification passed the engine's planted-key check
  but the key differed (never observed with verification on; kept so
  a regression would be loud, not silent);
* ``low_confidence`` — the voter gave up gracefully
  (:class:`~repro.core.errors.LowConfidenceError`);
* ``budget_exceeded`` — the cost multiplier ran out;
* ``inconsistent`` / ``verify_failed`` — a wrong segment decision
  propagated far enough to trip a hard check.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from ..cache.geometry import CacheGeometry
from ..core.attack import GrinchAttack
from ..core.config import AttackConfig
from ..channel import LossyChannel
from ..targets.gift import TracedGift64
from .artifact import confidence_summary, outcome_tally, run_attack
from .budget import effort_budget
from .params import Param, spec
from .registry import CellPlan, Experiment, register
from ..seeding import derive_key

_ROBUSTNESS_SPEC = spec(
    Param("miss_probabilities", "float_list", (0.0, 0.1, 0.2),
          "per-probe false-negative probabilities to sweep"),
    Param("eviction_rates", "float_list", (0.0, 0.5),
          "co-runner target-line eviction rates to sweep"),
    Param("runs", "int", 5, "Monte-Carlo repetitions per cell"),
    Param("budget_factor", "float", 4.0,
          "total-encryption budget as a multiple of the analytic "
          "lossless full-key effort"),
    Param("line_words", "int", 1, "cache line size in S-box words"),
    Param("probing_round", "int", 1, "probe delay in rounds"),
    Param("confidence", "float", 0.9995,
          "voting acceptance confidence threshold"),
    Param("seed", "int", 14, "base seed of the sweep"),
)


def _robustness_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    if params["runs"] < 1:
        raise ValueError(f"runs must be positive, got {params['runs']}")
    return [
        CellPlan(cell={"miss_probability": miss, "eviction_rate": evict},
                 trials=params["runs"])
        for miss in params["miss_probabilities"]
        for evict in params["eviction_rates"]
    ]


def _robustness_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                      trial_index: int, seed: int) -> Dict[str, Any]:
    config = AttackConfig(
        geometry=CacheGeometry(line_words=params["line_words"]),
        probing_round=params["probing_round"],
        seed=seed,
        loss=LossyChannel(
            miss_probability=cell["miss_probability"],
            eviction_rate=cell["eviction_rate"],
        ),
        voting_confidence=params["confidence"],
        max_total_encryptions=effort_budget(params),
    )
    planted = derive_key(128, seed)
    victim = TracedGift64(planted, layout=config.layout)
    ended = run_attack(GrinchAttack(victim, config), "full_key", planted)
    if ended.outcome == "low_confidence":
        return ended.trial(best_confidence=ended.error.best_confidence)
    if ended.result is None:
        return ended.trial()
    return ended.trial(
        min_confidence=ended.result.min_confidence,
        mean_confidence=ended.result.mean_confidence,
        retries=ended.result.total_retries,
    )


def _robustness_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                         trials: List[Any]) -> Dict[str, Any]:
    return {
        "cell": cell,
        "trials": trials,
        **outcome_tally(trials),
        "confidence": confidence_summary(
            [t["min_confidence"] for t in trials if t["recovered"]]
        ),
        "budget": effort_budget(params),
    }


def _robustness_summarize(params: Mapping[str, Any],
                          cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    lossless = [c for c in cells
                if c["cell"]["miss_probability"] == 0.0
                and c["cell"]["eviction_rate"] == 0.0]
    return {
        "cells": len(cells),
        "budget": effort_budget(params),
        "worst_success_rate": min(
            (c["success_rate"] for c in cells), default=0.0
        ),
        "lossless_success_rate": (
            lossless[0]["success_rate"] if lossless else None
        ),
    }


def _robustness_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_table

    rows = []
    for cell in record["cells"]:
        summary = cell["summary"]
        confidence = cell["confidence"]
        rows.append([
            f"{cell['cell']['miss_probability']:.2f}",
            f"{cell['cell']['eviction_rate']:.2f}",
            f"{cell['success_rate']:.0%}",
            f"{summary['mean']:,.0f}" if summary else "-",
            f"{confidence['min']:.4f}" if confidence else "-",
        ])
    return format_table(
        f"E14 — Lossy-channel robustness "
        f"(budget {record['summary']['budget']:,} encryptions)",
        ["Miss prob", "Evict rate", "Success", "Mean encryptions",
         "Min confidence"],
        rows,
    )


register(Experiment(
    name="noise_robustness",
    experiment_id="E14",
    title="Lossy-channel robustness: voting recovery under "
          "false-negative noise",
    spec=_ROBUSTNESS_SPEC,
    plan=_robustness_plan,
    trial=_robustness_trial,
    finalize=_robustness_finalize,
    summarize=_robustness_summarize,
    render=_robustness_render,
    aliases=("noise-robustness", "e14"),
))

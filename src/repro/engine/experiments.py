"""Built-in experiment definitions: the paper artefacts E1–E5.

Each definition is declarative: a typed parameter spec, a ``plan`` that
lays out the sweep's independent cells, a ``trial`` that draws one
Monte-Carlo sample from a derived seed, and a ``finalize`` that folds
the samples into one JSON cell record.  The engine owns everything else
(parallel fan-out, caching, artifacts, telemetry).

Monte-Carlo cells whose *expected* effort exceeds the
``max_simulated_effort`` budget are filled from the analytic model
(validated against simulation by E7), exactly like the original serial
harness; ``REPRO_FULL=1`` callers pass a budget above the 1M drop-out
threshold to brute-force everything.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..analysis.theory import expected_first_round_effort
from ..cache.geometry import CacheGeometry
from ..channel import CacheTransport, ObservationChannel
from ..core.attack import GrinchAttack
from ..core.config import AttackConfig
from ..core.outcome import run_attack
from ..countermeasures import (
    evaluate_hardened_schedule,
    evaluate_reshaped_sbox,
)
from ..targets.gift import TracedGift64, gift64
from ..targets.registry import get_target
from ..soc.clock import PAPER_FREQUENCIES_HZ, ClockDomain
from ..soc.platform import MPSoC, SingleCoreSoC
from .artifact import key_recovery_finalize, outcome_tally, trial_summary
from .budget import QUICK_EFFORT
from .params import Param, spec
from .registry import CellPlan, Experiment, register
from ..seeding import derive_key

#: Paper's drop-out threshold for Table I.
DROPOUT_THRESHOLD: int = 1_000_000


def first_round_trial(seed: int, config: AttackConfig,
                      transport: Optional[CacheTransport] = None,
                      target: str = "gift64") -> Dict[str, Any]:
    """One Monte-Carlo sample: attack round 1 of a seeded ``target``
    victim, through ``transport`` when given.  A failed trial recovered
    no bits."""
    cipher = get_target(target)
    victim = cipher.make_victim(derive_key(cipher.key_bits, seed))
    runner = ObservationChannel(victim, config, transport=transport)
    ended = run_attack(GrinchAttack(victim, config, runner=runner),
                       "first_round")
    return ended.trial(
        recovered_bits=ended.result.recovered_bits if ended.recovered else 0
    )


# ----------------------------------------------------------------------
# E1 — Fig. 3
# ----------------------------------------------------------------------

_FIGURE3_SPEC = spec(
    Param("probing_rounds", "int_list", tuple(range(1, 11)),
          "cache probing rounds to sweep (Fig. 3 x-axis)"),
    Param("runs", "int", 2, "Monte-Carlo repetitions per cell"),
    Param("seed", "int", 0, "base seed of the sweep"),
    Param("max_simulated_effort", "float", QUICK_EFFORT,
          "simulate cells whose expected effort fits this budget"),
)


def _figure3_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    if params["runs"] < 1:
        raise ValueError(f"runs must be positive, got {params['runs']}")
    plan = []
    for use_flush in (True, False):
        for probing_round in params["probing_rounds"]:
            expected = expected_first_round_effort(
                gift64, CacheGeometry(), probing_round, use_flush)
            simulated = expected <= params["max_simulated_effort"]
            plan.append(CellPlan(
                cell={"probing_round": probing_round,
                      "use_flush": use_flush},
                trials=params["runs"] if simulated else 0,
            ))
    return plan


def _figure3_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                   trial_index: int, seed: int) -> Dict[str, Any]:
    config = AttackConfig(
        probing_round=cell["probing_round"],
        use_flush=cell["use_flush"],
        seed=seed,
        max_total_encryptions=None,
    )
    return first_round_trial(seed, config)


def _figure3_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                      trials: List[Any]) -> Dict[str, Any]:
    expected = expected_first_round_effort(
        gift64, CacheGeometry(), cell["probing_round"], cell["use_flush"])
    # A cell whose trials all failed falls back to the analytic model.
    summary = outcome_tally(trials)["summary"]
    return {
        "cell": cell,
        "trials": trials,
        "summary": summary,
        "simulated": summary is not None,
        "encryptions": summary["mean"] if summary else expected,
        "expected_effort": expected,
    }


def _figure3_summarize(params: Mapping[str, Any],
                       cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "cells": len(cells),
        "simulated_cells": sum(1 for c in cells if c["simulated"]),
    }


def _figure3_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import render_figure3

    return render_figure3(record)


register(Experiment(
    name="figure3",
    experiment_id="E1",
    title="Fig. 3 — encryptions to break the first GIFT round vs. "
          "probing round",
    spec=_FIGURE3_SPEC,
    plan=_figure3_plan,
    trial=_figure3_trial,
    finalize=_figure3_finalize,
    summarize=_figure3_summarize,
    render=_figure3_render,
    aliases=("fig3",),
))


# ----------------------------------------------------------------------
# E2 — Table I
# ----------------------------------------------------------------------

_TABLE1_SPEC = spec(
    Param("line_sizes", "int_list", (1, 2, 4, 8),
          "cache line sizes in words (Table I rows)"),
    Param("probing_rounds", "int_list", (1, 2, 3, 4, 5),
          "probing rounds (Table I columns)"),
    Param("runs", "int", 2, "Monte-Carlo repetitions per cell"),
    Param("seed", "int", 1, "base seed of the sweep"),
    Param("max_simulated_effort", "float", QUICK_EFFORT,
          "simulate cells whose expected effort fits this budget"),
    Param("dropout_threshold", "int", DROPOUT_THRESHOLD,
          "the paper's >1M drop-out rule"),
)


def _table1_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    if params["runs"] < 1:
        raise ValueError(f"runs must be positive, got {params['runs']}")
    plan = []
    for line_words in params["line_sizes"]:
        for probing_round in params["probing_rounds"]:
            expected = expected_first_round_effort(
                gift64, CacheGeometry(line_words=line_words), probing_round)
            simulate = (expected <= params["dropout_threshold"]
                        and expected <= params["max_simulated_effort"])
            plan.append(CellPlan(
                cell={"line_words": line_words,
                      "probing_round": probing_round},
                trials=params["runs"] if simulate else 0,
            ))
    return plan


def _table1_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                  trial_index: int, seed: int) -> Dict[str, Any]:
    config = AttackConfig(
        geometry=CacheGeometry(line_words=cell["line_words"]),
        probing_round=cell["probing_round"],
        use_flush=True,
        seed=seed,
        max_total_encryptions=params["dropout_threshold"],
    )
    return first_round_trial(seed, config)


def _table1_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                     trials: List[Any]) -> Dict[str, Any]:
    expected = expected_first_round_effort(
        gift64, CacheGeometry(line_words=cell["line_words"]),
        cell["probing_round"])
    simulated = bool(trials)
    tally = outcome_tally(trials)
    if simulated:
        # A sample that crossed the >1M rule drops the cell out.
        dropped_out = "budget_exceeded" in tally["outcomes"]
    else:
        dropped_out = expected > params["dropout_threshold"]
    summary = tally["summary"] if not dropped_out else None
    if dropped_out:
        encryptions = None
    elif simulated:
        encryptions = summary["mean"] if summary else None
    else:
        encryptions = expected
    return {
        "cell": cell,
        "trials": trials,
        "summary": summary,
        "simulated": simulated,
        "dropped_out": dropped_out,
        "encryptions": encryptions,
        "expected_effort": expected,
    }


def _table1_summarize(params: Mapping[str, Any],
                      cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "cells": len(cells),
        "simulated_cells": sum(1 for c in cells if c["simulated"]),
        "dropped_out_cells": sum(1 for c in cells if c["dropped_out"]),
    }


def _table1_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import render_table1

    return render_table1(record)


register(Experiment(
    name="table1",
    experiment_id="E2",
    title="Table I — encryptions to attack the first round vs. cache "
          "line size",
    spec=_TABLE1_SPEC,
    plan=_table1_plan,
    trial=_table1_trial,
    finalize=_table1_finalize,
    summarize=_table1_summarize,
    render=_table1_render,
))


# ----------------------------------------------------------------------
# E3 — Table II
# ----------------------------------------------------------------------

_TABLE2_SPEC = spec(
    Param("frequencies_mhz", "int_list", (10, 25, 50),
          "platform clock frequencies in MHz"),
)

_PLATFORMS = ("single-core SoC", "MPSoC")


def _table2_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [
        CellPlan(cell={"platform": platform, "frequency_mhz": mhz},
                 trials=1)
        for platform in _PLATFORMS
        for mhz in params["frequencies_mhz"]
    ]


def _table2_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                  trial_index: int, seed: int) -> Dict[str, Any]:
    clock = ClockDomain(cell["frequency_mhz"] * 1e6)
    platform_cls = (SingleCoreSoC if cell["platform"] == _PLATFORMS[0]
                    else MPSoC)
    report = platform_cls(clock).run_attack_window()
    return {
        "probed_round": report.probed_round,
        "probe_time_s": report.probe_time_s,
        "round_duration_s": report.round_duration_s,
        "probe_latency_s": report.probe_latency_s,
    }


def _table2_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                     trials: List[Any]) -> Dict[str, Any]:
    (report,) = trials
    return {
        "cell": cell,
        "trials": trials,
        "summary": trial_summary([report["probed_round"]]),
        "probed_round": report["probed_round"],
        **{k: report[k] for k in ("probe_time_s", "round_duration_s",
                                  "probe_latency_s")},
    }


def _table2_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import render_table2

    return render_table2(record)


register(Experiment(
    name="table2",
    experiment_id="E3",
    title="Table II — the round each platform actually probes",
    spec=_TABLE2_SPEC,
    plan=_table2_plan,
    trial=_table2_trial,
    finalize=_table2_finalize,
    render=_table2_render,
))

#: Sanity link between the spec default and the paper constant.
assert tuple(int(f / 1e6) for f in PAPER_FREQUENCIES_HZ) == \
    _TABLE2_SPEC.get("frequencies_mhz").default


# ----------------------------------------------------------------------
# E4 — full 128-bit key recovery (headline)
# ----------------------------------------------------------------------

_FULL_KEY_SPEC = spec(
    Param("runs", "int", 3, "number of random victim keys"),
    Param("seed", "int", 0, "base seed of the sweep"),
    Param("width", "int", 64, "GIFT variant", choices=(64, 128)),
    Param("line_words", "int", 1, "cache line size in words",
          choices=(1, 2, 4, 8)),
    Param("probing_round", "int", 1, "cache probing round"),
    Param("use_flush", "bool", True, "mid-encryption flush"),
    Param("probe_strategy", "str", "flush_reload", "probing primitive",
          choices=("flush_reload", "prime_probe", "flush_flush")),
    Param("max_encryptions_per_segment", "int", 100_000,
          "per-segment convergence budget"),
    Param("max_total_encryptions", "int", 0,
          "whole-attack budget (0 = unlimited)"),
)


def _full_key_config(params: Mapping[str, Any], seed: int) -> AttackConfig:
    return AttackConfig(
        geometry=CacheGeometry(line_words=params["line_words"]),
        probing_round=params["probing_round"],
        use_flush=params["use_flush"],
        probe_strategy=params["probe_strategy"],
        max_encryptions_per_segment=params["max_encryptions_per_segment"],
        max_total_encryptions=params["max_total_encryptions"] or None,
        seed=seed,
    )


def _full_key_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                    trial_index: int, seed: int) -> Dict[str, Any]:
    from ..targets.gift import TracedGift128

    victim_cls = TracedGift64 if params["width"] == 64 else TracedGift128
    planted = derive_key(128, seed)
    attack = GrinchAttack(victim_cls(planted), _full_key_config(params, seed))
    return run_attack(attack, "full_key", planted).trial()


def _full_key_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    if params["runs"] < 1:
        raise ValueError(f"runs must be positive, got {params['runs']}")
    return [CellPlan(cell={}, trials=params["runs"])]


def _full_key_summarize(params: Mapping[str, Any],
                        cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    (cell,) = cells
    return {
        "runs": params["runs"],
        "all_recovered": cell["all_recovered"],
        "mean_encryptions": (cell["summary"] or {}).get("mean"),
    }


def _full_key_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import render_effort_series

    return render_effort_series(
        f"E4 — Full 128-bit key recovery (paper: < 400 encryptions; "
        f"{record['params']['runs']} random keys, all recovered: "
        f"{record['summary']['all_recovered']})",
        record["cells"][0]["summary"],
    )


register(Experiment(
    name="full_key",
    experiment_id="E4",
    title="Headline — full 128-bit key recovery in <400 encryptions",
    spec=_FULL_KEY_SPEC,
    plan=_full_key_plan,
    trial=_full_key_trial,
    finalize=key_recovery_finalize,
    summarize=_full_key_summarize,
    render=_full_key_render,
    aliases=("fullkey",),
))


# ----------------------------------------------------------------------
# E5 — countermeasures
# ----------------------------------------------------------------------

_COUNTERMEASURES_SPEC = spec(
    Param("seed", "int", 0, "base seed"),
    Param("encryptions", "int", 200,
          "profiling encryptions per leakage summary"),
)

_COUNTERMEASURE_EVALUATORS = {
    "reshaped_sbox": evaluate_reshaped_sbox,
    "hardened_schedule": evaluate_hardened_schedule,
}


def _countermeasures_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [CellPlan(cell={"countermeasure": name}, trials=1)
            for name in _COUNTERMEASURE_EVALUATORS]


def _countermeasures_trial(params: Mapping[str, Any],
                           cell: Dict[str, Any], trial_index: int,
                           seed: int) -> Dict[str, Any]:
    evaluator = _COUNTERMEASURE_EVALUATORS[cell["countermeasure"]]
    report = evaluator(derive_key(128, seed), seed=seed,
                       encryptions=params["encryptions"])
    return {
        "name": report.name,
        "baseline_leaks": report.baseline_leakage.leaks,
        "protected_leaks": report.protected_leakage.leaks,
        "attack_defeated": report.attack_defeated,
        "failure_mode": report.failure_mode,
        "recovered_key_matches": report.recovered_key_matches,
    }


def _countermeasures_finalize(params: Mapping[str, Any],
                              cell: Dict[str, Any],
                              trials: List[Any]) -> Dict[str, Any]:
    (report,) = trials
    return {"cell": cell, "trials": trials, "summary": None, **report}


def _countermeasures_summarize(params: Mapping[str, Any],
                               cells: List[Dict[str, Any]]
                               ) -> Dict[str, Any]:
    return {"all_defeated": all(c["attack_defeated"] for c in cells)}


def _countermeasures_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_table

    rows = [
        [
            cell["name"],
            "yes" if cell["baseline_leaks"] else "no",
            "yes" if cell["protected_leaks"] else "no",
            "defeated" if cell["attack_defeated"] else "BROKEN",
            cell["failure_mode"] or "-",
        ]
        for cell in record["cells"]
    ]
    return format_table(
        "E5 — Countermeasure evaluation (Section IV-C)",
        ["Countermeasure", "Baseline leaks", "Protected leaks",
         "GRINCH outcome", "Failure mode"],
        rows,
    )


register(Experiment(
    name="countermeasures",
    experiment_id="E5",
    title="Section IV-C — reshaped S-box and hardened key schedule",
    spec=_COUNTERMEASURES_SPEC,
    plan=_countermeasures_plan,
    trial=_countermeasures_trial,
    finalize=_countermeasures_finalize,
    summarize=_countermeasures_summarize,
    render=_countermeasures_render,
))

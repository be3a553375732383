"""E15 — probe-primitive comparison through one observation channel.

Runs the same seeded attack through each L1 probe primitive of the
layered channel stack (:mod:`repro.channel.primitive`) and compares the
encryption effort, so the cost of switching primitives is a measured
number instead of folklore:

* **Flush+Reload** — the paper's primitive; line-granular and exact,
  the effort baseline every other cell is normalised against;
* **Prime+Probe** — set-granular: PermBits contention forces the full
  simulator and a prime/probe stall window, so elimination pays for
  the coarser signal with extra encryptions;
* **Flush+Flush** — the flush latency itself is the signal (Gruss et
  al.), which keeps the probe invisible to the victim but makes the
  per-line readout unreliable; the voting recovery absorbs the
  false negatives at the price of a minimum observation count.

Each cell reports the same outcome taxonomy as the robustness sweep
(E14) plus the channel's own ``signal_reliability``, and the summary
contains the per-primitive effort ratio against Flush+Reload — the
repo's acceptance bar pins the seeded Flush+Flush full-key ratio at
<= 2.0x.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from ..cache.geometry import CacheGeometry
from ..channel.primitive import PRIMITIVE_NAMES
from ..core.attack import GrinchAttack
from ..core.config import AttackConfig
from ..targets.gift import TracedGift64
from ..seeding import derive_key
from .artifact import outcome_tally, run_attack
from .budget import effort_budget
from .params import Param, name_list, spec
from .registry import CellPlan, Experiment, register

_COMPARISON_SPEC = spec(
    Param("primitives", "str", "flush_reload,prime_probe,flush_flush",
          "comma-separated probe primitives to compare"),
    Param("scope", "str", "full_key",
          "attack scope per trial: round-1 key bits or the full "
          "128-bit master key", choices=("first_round", "full_key")),
    Param("runs", "int", 2, "Monte-Carlo repetitions per primitive"),
    Param("line_words", "int", 1, "cache line size in S-box words",
          choices=(1, 2, 4, 8)),
    Param("probing_round", "int", 1, "probe delay in rounds"),
    Param("flush_flush_miss_probability", "float", 0.02,
          "per-line false-negative rate of the Flush+Flush readout "
          "(scaled by the per-set noise profile)"),
    Param("voting_min_observations", "int", 8,
          "voting floor for the unreliable-signal primitives; lower "
          "than the lossy-channel default because the Flush+Flush "
          "miss rate is far below the E14 sweep's"),
    Param("budget_factor", "float", 100.0,
          "total-encryption budget as a multiple of the analytic "
          "lossless effort of the chosen scope; the default leaves "
          "headroom for Prime+Probe's ~75x set-granular overhead"),
    Param("seed", "int", 15, "base seed of the sweep"),
)


def _comparison_config(params: Mapping[str, Any], primitive: str,
                       seed: int) -> AttackConfig:
    return AttackConfig(
        geometry=CacheGeometry(line_words=params["line_words"]),
        probing_round=params["probing_round"],
        probe_strategy=primitive,
        stall_window=200 if primitive == "prime_probe" else 0,
        flush_flush_miss_probability=(
            params["flush_flush_miss_probability"]
            if primitive == "flush_flush" else 0.0
        ),
        voting_min_observations=params["voting_min_observations"],
        max_total_encryptions=effort_budget(params),
        seed=seed,
    )


def _comparison_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    if params["runs"] < 1:
        raise ValueError(f"runs must be positive, got {params['runs']}")
    primitives = name_list(params["primitives"], PRIMITIVE_NAMES,
                           "primitive")
    return [CellPlan(cell={"primitive": primitive}, trials=params["runs"])
            for primitive in primitives]


def _comparison_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                      trial_index: int, seed: int) -> Dict[str, Any]:
    config = _comparison_config(params, cell["primitive"], seed)
    planted = derive_key(128, seed)
    victim = TracedGift64(planted, layout=config.layout)
    attack = GrinchAttack(victim, config)
    reliability = attack.runner.signal_reliability
    ended = run_attack(attack, params["scope"], planted)
    if params["scope"] == "first_round" and ended.recovered:
        return ended.trial(recovered_bits=ended.result.recovered_bits,
                           signal_reliability=reliability)
    return ended.trial(signal_reliability=reliability)


def _comparison_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                         trials: List[Any]) -> Dict[str, Any]:
    return {
        "cell": cell,
        "trials": trials,
        **outcome_tally(trials),
        "signal_reliability": trials[0]["signal_reliability"]
        if trials else None,
        "budget": effort_budget(params),
    }


def _comparison_summarize(params: Mapping[str, Any],
                          cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    means = {
        c["cell"]["primitive"]: (c["summary"]["mean"]
                                 if c["summary"] else None)
        for c in cells
    }
    baseline = means.get("flush_reload")
    ratios = {
        primitive: (mean / baseline
                    if baseline and mean is not None else None)
        for primitive, mean in means.items()
    }
    return {
        "scope": params["scope"],
        "budget": effort_budget(params),
        "mean_encryptions": means,
        "effort_vs_flush_reload": ratios,
        "all_recovered": all(c["success_rate"] == 1.0 for c in cells),
    }


def _comparison_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_table

    ratios = record["summary"]["effort_vs_flush_reload"]
    rows = []
    for cell in record["cells"]:
        primitive = cell["cell"]["primitive"]
        summary = cell["summary"]
        ratio = ratios.get(primitive)
        rows.append([
            primitive,
            f"{cell['signal_reliability']:.3f}"
            if cell["signal_reliability"] is not None else "-",
            f"{cell['success_rate']:.0%}",
            f"{summary['mean']:,.0f}" if summary else "-",
            f"{ratio:.2f}x" if ratio is not None else "-",
        ])
    return format_table(
        f"E15 — Probe-primitive comparison "
        f"({record['summary']['scope']}, budget "
        f"{record['summary']['budget']:,} encryptions)",
        ["Primitive", "Reliability", "Success", "Mean encryptions",
         "vs Flush+Reload"],
        rows,
    )


register(Experiment(
    name="primitive_comparison",
    experiment_id="E15",
    title="Probe-primitive comparison: Flush+Reload vs Prime+Probe vs "
          "Flush+Flush through one channel stack",
    spec=_COMPARISON_SPEC,
    plan=_comparison_plan,
    trial=_comparison_trial,
    finalize=_comparison_finalize,
    summarize=_comparison_summarize,
    render=_comparison_render,
    aliases=("primitive-comparison", "e15"),
))

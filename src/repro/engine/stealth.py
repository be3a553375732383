"""E20 — stealth vs effort: the attack under the defender's eye.

E15 measured what switching probe primitives *costs* (encryptions);
this experiment measures what it *buys* (stealth).  Every cell runs a
seeded attack with a :class:`~repro.channel.defender.DefenderObserver`
tapping the transport, and reports both coordinates of the
stealth-vs-effort frontier:

* **effort** — mean encryptions to recovery (same taxonomy as E15);
* **detectability** — mean PMC-visible events per probe window
  (attacker-core misses + attacker-caused evictions and
  back-invalidates; see ``docs/stealth.md``), plus the thresholded
  ``detection_rate`` under the configured
  :class:`~repro.channel.defender.DetectionPolicy`.

The headline ordering this pins: **Flush+Flush** buys zero
detectability (flush-only windows — no PMU event to count) for <= 2x
the Flush+Reload effort; **Flush+Reload** pays a per-window reload
miss storm; **Prime+Probe** is maximally loud (hundreds of misses and
evictions per window) on top of being the slowest.

The scenario axis folds in the ARMageddon-style mobile SoC: a
cross-core attack through :class:`~repro.channel.SharedL2Transport`
over a two-level hierarchy with **random replacement** (per-set
derived streams — the de-correlation fix this PR ships) in both
inclusive and exclusive inclusion modes.  The exclusive cell is the
hierarchy-as-countermeasure row: GIFT's S-box fits in the victim's
private L1, never reaches the shared L2, and the attack dies with
nothing to observe.  Mobile cells also stamp an estimated attack
wall-clock, pricing each attacker operation at the
:mod:`repro.soc` mesh-NoC remote-access latency (the MPSoC's ~400 ns
probe path).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..cache.geometry import CacheGeometry
from ..cache.multilevel import InclusionPolicy
from ..channel.defender import DefenderObserver, DetectionPolicy
from ..channel.observer import ObservationChannel
from ..channel.primitive import PRIMITIVE_NAMES
from ..core.attack import GrinchAttack
from ..core.config import AttackConfig
from ..core.crosscore import make_cross_core_runner
from ..targets.gift import TracedGift64
from ..seeding import derive_key
from .artifact import outcome_tally, run_attack
from .budget import effort_budget
from .params import Param, name_list, spec
from .registry import CellPlan, Experiment, register

#: Scenario -> (transport family, inclusion mode).  Mobile scenarios
#: run cross-core over a random-replacement two-level hierarchy; only
#: the clflush-based paper primitive applies there (Prime+Probe needs
#: same-cache contention and the observer rejects it).
SCENARIOS = ("same_core", "mobile_soc_inclusive", "mobile_soc_exclusive")

_STEALTH_SPEC = spec(
    Param("primitives", "str", "flush_reload,prime_probe,flush_flush",
          "comma-separated probe primitives for the same-core frontier"),
    Param("scenarios", "str", ",".join(SCENARIOS),
          "comma-separated scenario rows; mobile_soc_* are the "
          "ARMageddon-style random-replacement hierarchy cells "
          "(Flush+Reload only)"),
    Param("scope", "str", "first_round",
          "attack scope per trial", choices=("first_round", "full_key")),
    Param("runs", "int", 2, "Monte-Carlo repetitions per cell"),
    Param("line_words", "int", 1, "cache line size in S-box words",
          choices=(1, 2, 4, 8)),
    Param("flush_flush_miss_probability", "float", 0.02,
          "per-line false-negative rate of the Flush+Flush readout"),
    Param("voting_min_observations", "int", 8,
          "voting floor for unreliable-signal primitives (E15's value)"),
    Param("budget_factor", "float", 100.0,
          "total-encryption budget as a multiple of the analytic "
          "lossless effort of the chosen scope"),
    Param("max_attacker_misses", "int", 4,
          "detection threshold: attacker-core demand misses per window"),
    Param("max_evictions", "int", 8,
          "detection threshold: attacker-caused evictions per window"),
    Param("seed", "int", 20, "base seed of the sweep"),
)


def _stealth_config(params: Mapping[str, Any], primitive: str,
                    seed: int) -> AttackConfig:
    return AttackConfig(
        geometry=CacheGeometry(line_words=params["line_words"]),
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


def _detection_policy(params: Mapping[str, Any]) -> DetectionPolicy:
    return DetectionPolicy(
        max_attacker_misses=params["max_attacker_misses"],
        max_evictions=params["max_evictions"],
    )


def _mobile_probe_seconds() -> float:
    """Wall-clock of one attacker cache operation on the mobile SoC.

    Reuses the :mod:`repro.soc` MPSoC probe path: one remote access
    from the attacker tile to the shared-cache tile over the default
    4x2 mesh NoC at the paper's mid operating point.
    """
    from ..soc import ClockDomain, MeshNoc, PAPER_FREQUENCIES_HZ

    noc = MeshNoc()
    clock = ClockDomain(PAPER_FREQUENCIES_HZ[1])
    return noc.remote_access_seconds((3, 1), (1, 1), clock)


def _stealth_runner(victim: TracedGift64, config: AttackConfig,
                    scenario: str,
                    defender: DefenderObserver) -> ObservationChannel:
    if scenario == "same_core":
        return ObservationChannel(victim, config, defender=defender)
    inclusion = (InclusionPolicy.INCLUSIVE
                 if scenario == "mobile_soc_inclusive"
                 else InclusionPolicy.EXCLUSIVE)
    return make_cross_core_runner(victim, config, inclusion,
                                  policy="random", defender=defender)


def _stealth_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    if params["runs"] < 1:
        raise ValueError(f"runs must be positive, got {params['runs']}")
    cells: List[CellPlan] = []
    scenarios = name_list(params["scenarios"], SCENARIOS, "scenario")
    if "same_core" in scenarios:
        cells.extend(
            CellPlan(cell={"scenario": "same_core", "primitive": primitive},
                     trials=params["runs"])
            for primitive in name_list(params["primitives"],
                                       PRIMITIVE_NAMES, "primitive")
        )
    for scenario in scenarios:
        if scenario != "same_core":
            cells.append(CellPlan(
                cell={"scenario": scenario, "primitive": "flush_reload"},
                trials=params["runs"],
            ))
    return cells


def _stealth_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                   trial_index: int, seed: int) -> Dict[str, Any]:
    config = _stealth_config(params, cell["primitive"], seed)
    planted = derive_key(128, seed)
    victim = TracedGift64(planted, layout=config.layout)
    defender = DefenderObserver(_detection_policy(params))
    runner = _stealth_runner(victim, config, cell["scenario"], defender)
    attack = GrinchAttack(victim, config, runner=runner)
    ended = run_attack(attack, params["scope"], planted)
    report = defender.report()
    trial = ended.trial(defender=report.as_dict())
    if cell["scenario"] != "same_core":
        ops = report.windows * (report.attacker_accesses_per_window
                                + report.flushes_per_window)
        trial["estimated_attack_seconds"] = ops * _mobile_probe_seconds()
    return trial


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _stealth_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                      trials: List[Any]) -> Dict[str, Any]:
    reports = [t["defender"] for t in trials]
    cell_summary = {
        "cell": cell,
        "trials": trials,
        **outcome_tally(trials),
        "detectability": _mean([r["detectability"] for r in reports]),
        "detection_rate": _mean([r["detection_rate"] for r in reports]),
        "flushes_per_window": _mean(
            [r["flushes_per_window"] for r in reports]
        ),
        "flush_resident_per_window": _mean(
            [r["flush_resident_per_window"] for r in reports]
        ),
        "budget": effort_budget(params),
    }
    seconds = [t["estimated_attack_seconds"] for t in trials
               if "estimated_attack_seconds" in t]
    if seconds:
        cell_summary["estimated_attack_seconds"] = _mean(seconds)
    return cell_summary


def _cell_key(cell: Dict[str, Any]) -> str:
    if cell["scenario"] == "same_core":
        return cell["primitive"]
    return cell["scenario"]


def _stealth_summarize(params: Mapping[str, Any],
                       cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    frontier = {
        _cell_key(c["cell"]): {
            "encryptions": c["summary"]["mean"] if c["summary"] else None,
            "detectability": c["detectability"],
            "detection_rate": c["detection_rate"],
            "success_rate": c["success_rate"],
        }
        for c in cells
    }
    fr = frontier.get("flush_reload")
    ff = frontier.get("flush_flush")
    pp = frontier.get("prime_probe")
    effort_ratio = None
    if (fr and ff and fr["encryptions"] and ff["encryptions"] is not None):
        effort_ratio = ff["encryptions"] / fr["encryptions"]
    same_core = [v for k, v in frontier.items() if k in PRIMITIVE_NAMES]
    summary: Dict[str, Any] = {
        "scope": params["scope"],
        "budget": effort_budget(params),
        "frontier": frontier,
        "flush_flush_effort_ratio": effort_ratio,
        "flush_flush_stealthier": (
            ff is not None and fr is not None
            and ff["detectability"] is not None
            and fr["detectability"] is not None
            and ff["detectability"] < fr["detectability"]
        ),
        "prime_probe_most_detectable": (
            pp is not None and bool(same_core)
            and pp["detectability"] is not None
            and pp["detectability"] == max(
                v["detectability"] for v in same_core
                if v["detectability"] is not None
            )
        ),
    }
    inclusive = frontier.get("mobile_soc_inclusive")
    exclusive = frontier.get("mobile_soc_exclusive")
    if inclusive is not None and exclusive is not None:
        # The exclusive hierarchy is itself a countermeasure: the
        # S-box lives in the victim's private L1 and never reaches
        # the shared level the attacker can sense.
        summary["hierarchy_countermeasure_holds"] = (
            inclusive["success_rate"] == 1.0
            and exclusive["success_rate"] == 0.0
        )
    return summary


def _stealth_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_table

    rows = []
    for cell in record["cells"]:
        summary = cell["summary"]
        rows.append([
            cell["cell"]["scenario"],
            cell["cell"]["primitive"],
            f"{cell['success_rate']:.0%}",
            f"{summary['mean']:,.0f}" if summary else "-",
            f"{cell['detectability']:.2f}"
            if cell["detectability"] is not None else "-",
            f"{cell['detection_rate']:.0%}"
            if cell["detection_rate"] is not None else "-",
            f"{cell['flushes_per_window']:.0f}"
            if cell["flushes_per_window"] is not None else "-",
        ])
    summary = record["summary"]
    ratio = summary["flush_flush_effort_ratio"]
    return format_table(
        f"E20 — Stealth vs effort ({summary['scope']}, budget "
        f"{summary['budget']:,} encryptions; Flush+Flush ratio "
        f"{ratio:.2f}x)" if ratio is not None else
        f"E20 — Stealth vs effort ({summary['scope']}, budget "
        f"{summary['budget']:,} encryptions)",
        ["Scenario", "Primitive", "Success", "Mean encryptions",
         "Detectability", "Detected", "Flushes/window"],
        rows,
    )


register(Experiment(
    name="stealth_vs_effort",
    experiment_id="E20",
    title="Stealth vs effort: primitive detectability frontier under a "
          "performance-counter defender",
    spec=_STEALTH_SPEC,
    plan=_stealth_plan,
    trial=_stealth_trial,
    finalize=_stealth_finalize,
    summarize=_stealth_summarize,
    render=_stealth_render,
    aliases=("stealth-vs-effort", "e20"),
))

"""Built-in experiment definitions: the ablations/extensions E6–E13.

Same declarative shape as :mod:`repro.engine.experiments`; these cover
the DESIGN.md ablation index — probing primitive (E6), analytic-model
validation (E7), replacement policy (E8), co-runner noise (E9), the
observation-channel taxonomy (E10), GIFT-128 (E11), the shared-L2
memory hierarchy (E12), and NoC contention (E13).

Every GRINCH trial runs through :func:`repro.core.run_attack`, so a
typed attack failure is a trial outcome.  E10's trace- and time-driven
variants are not GRINCH attacks, and their errors are not typed the
same way (a contradicted model raises ``RuntimeError``), so they run
directly and their trials carry no outcome.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping

from ..analysis.theory import expected_first_round_effort
from ..cache.geometry import CacheGeometry
from ..core.attack import GrinchAttack
from ..core.config import AttackConfig
from ..core.outcome import FAILURE_OUTCOMES, run_attack
from ..channel import NoiseModel, SingleLevelTransport
from ..targets.gift import TracedGift64, gift64
from ..targets.registry import get_target
from ..staticcheck import declassify
from .artifact import key_recovery_finalize, outcome_tally, trial_summary
from .experiments import first_round_trial
from .params import Param, spec
from .registry import CellPlan, Experiment, register
from ..seeding import derive_key


def _passthrough_finalize(params: Mapping[str, Any],
                          cell: Dict[str, Any],
                          trials: List[Any]) -> Dict[str, Any]:
    """Single-trial cells: hoist the trial dict into the cell record.
    The summary covers a trial that did not fail."""
    (payload,) = trials
    summary = (trial_summary([float(payload["encryptions"])])
               if payload.get("recovered", True) else None)
    return {"cell": cell, "trials": trials, "summary": summary, **payload}


def _round_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                    trials: List[Any]) -> Dict[str, Any]:
    """First-round GIFT-64 cells (E6, E8, E9): the outcome tally, the
    mean effort of the recovered trials, and whether every trial
    recovered a whole round key."""
    tally = outcome_tally(trials)
    round_bits = get_target("gift64").bits_per_round
    return {
        "cell": cell,
        "trials": trials,
        **tally,
        "encryptions": tally["summary"]["mean"] if tally["summary"]
        else None,
        "recovered": all(t["recovered_bits"] == round_bits
                         for t in trials),
    }


# ----------------------------------------------------------------------
# E6 — probing-primitive ablation
# ----------------------------------------------------------------------

_PROBE_SPEC = spec(
    Param("runs", "int", 2, "Monte-Carlo repetitions per strategy"),
    Param("seed", "int", 0, "base seed"),
)


def _probe_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [CellPlan(cell={"strategy": strategy}, trials=params["runs"])
            for strategy in ("flush_reload", "prime_probe")]


def _probe_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                 trial_index: int, seed: int) -> Dict[str, Any]:
    config = AttackConfig(
        probe_strategy=cell["strategy"],
        seed=seed,
        max_total_encryptions=None,
    )
    return first_round_trial(seed, config)


def _probe_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_count, format_table

    return format_table(
        "E6 — Probing primitive ablation (first-round attack)",
        ["Strategy", "Mean encryptions", "Key bits recovered"],
        [[c["cell"]["strategy"], format_count(c["encryptions"]),
          "yes" if c["recovered"] else "no"] for c in record["cells"]],
    )


register(Experiment(
    name="probe_ablation",
    experiment_id="E6",
    title="Probing primitive: Flush+Reload vs. Prime+Probe",
    spec=_PROBE_SPEC,
    plan=_probe_plan,
    trial=_probe_trial,
    finalize=_round_finalize,
    render=_probe_render,
))


# ----------------------------------------------------------------------
# E7 — analytic model vs. Monte-Carlo simulation
# ----------------------------------------------------------------------

_THEORY_SPEC = spec(
    Param("cases", "int_pair_list", ((1, 1), (1, 2), (1, 3), (2, 1)),
          "validated (line_words, probing_round) configurations"),
    Param("runs", "int", 5, "Monte-Carlo repetitions per case"),
    Param("seed", "int", 3, "base seed"),
)


def _theory_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [
        CellPlan(cell={"line_words": line_words,
                       "probing_round": probing_round},
                 trials=params["runs"])
        for line_words, probing_round in params["cases"]
    ]


def _theory_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                  trial_index: int, seed: int) -> Dict[str, Any]:
    config = AttackConfig(
        geometry=CacheGeometry(line_words=cell["line_words"]),
        probing_round=cell["probing_round"],
        seed=seed,
        max_total_encryptions=None,
    )
    return first_round_trial(seed, config)


def _theory_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                     trials: List[Any]) -> Dict[str, Any]:
    summary = outcome_tally(trials)["summary"]
    predicted = expected_first_round_effort(
        gift64, CacheGeometry(line_words=cell["line_words"]),
        cell["probing_round"],
    )
    measured = summary["mean"] if summary else None
    return {
        "cell": cell,
        "trials": trials,
        "summary": summary,
        "predicted": predicted,
        "measured": measured,
        "relative_error": abs(predicted - measured) / measured
        if summary else None,
    }


def _theory_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_count, format_table

    return format_table(
        "E7 — Analytic effort model vs. Monte-Carlo simulation",
        ["Line words", "Probing round", "Predicted", "Measured",
         "Rel. error"],
        [[str(c["cell"]["line_words"]), str(c["cell"]["probing_round"]),
          f"{c['predicted']:,.0f}", format_count(c["measured"]),
          "-" if c["relative_error"] is None
          else f"{c['relative_error']:.0%}"] for c in record["cells"]],
    )


register(Experiment(
    name="theory_validation",
    experiment_id="E7",
    title="Analytic effort model vs. simulation",
    spec=_THEORY_SPEC,
    plan=_theory_plan,
    trial=_theory_trial,
    finalize=_theory_finalize,
    render=_theory_render,
))


# ----------------------------------------------------------------------
# E8 — replacement-policy sensitivity
# ----------------------------------------------------------------------

_POLICY_SPEC = spec(
    Param("policies", "str", "lru,fifo,random",
          "comma-separated replacement policies"),
    Param("seed", "int", 6, "base seed"),
)


def _policy_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [CellPlan(cell={"policy": policy.strip()}, trials=1)
            for policy in params["policies"].split(",") if policy.strip()]


def _policy_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                  trial_index: int, seed: int) -> Dict[str, Any]:
    # The policy only matters on the full-simulation path.  It must be
    # built into the channel's transport: the pre-channel runner held
    # its cache directly, and assigning `attack.runner.cache` (as this
    # trial once did) left the transport's LRU cache in the loop — the
    # lru/fifo/random cells were silently all measuring LRU.
    config = AttackConfig(seed=seed, use_fast_path=False,
                          max_total_encryptions=None)
    return first_round_trial(
        seed, config,
        SingleLevelTransport(config.geometry, policy=cell["policy"]),
    )


def _policy_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                     trials: List[Any]) -> Dict[str, Any]:
    (trial,) = trials
    return {**_round_finalize(params, cell, trials),
            "recovered_bits": trial["recovered_bits"]}


def _policy_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_count, format_table

    return format_table(
        "E8 — replacement policy sensitivity",
        ["Policy", "Encryptions", "Bits recovered"],
        [[c["cell"]["policy"], format_count(c["encryptions"]),
          str(c["recovered_bits"])] for c in record["cells"]],
    )


register(Experiment(
    name="replacement_policy",
    experiment_id="E8",
    title="Replacement-policy sensitivity (LRU/FIFO/random)",
    spec=_POLICY_SPEC,
    plan=_policy_plan,
    trial=_policy_trial,
    finalize=_policy_finalize,
    render=_policy_render,
))


# ----------------------------------------------------------------------
# E9 — co-runner noise sensitivity
# ----------------------------------------------------------------------

_NOISE_SPEC = spec(
    Param("levels", "pair_list", ((0.0, 0), (0.2, 1), (0.5, 2), (0.8, 4)),
          "(touch probability, monitored touches) noise levels"),
    Param("runs", "int", 2, "Monte-Carlo repetitions per level"),
    Param("seed", "int", 5, "base seed"),
)


def _noise_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [
        CellPlan(cell={"touch_probability": probability,
                       "monitored_touches": touches},
                 trials=params["runs"])
        for probability, touches in params["levels"]
    ]


def _noise_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                 trial_index: int, seed: int) -> Dict[str, Any]:
    config = AttackConfig(
        seed=seed,
        noise=NoiseModel(
            touch_probability=cell["touch_probability"],
            monitored_touches=cell["monitored_touches"],
        ),
        max_total_encryptions=None,
    )
    return first_round_trial(seed, config)


def _noise_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_count, format_table

    return format_table(
        "E9 — co-runner noise sensitivity (first-round attack)",
        ["P(noisy window)", "Touches/window", "Mean encryptions",
         "Recovered"],
        [[f"{c['cell']['touch_probability']:.1f}",
          str(c["cell"]["monitored_touches"]),
          format_count(c["encryptions"]),
          "yes" if c["recovered"] else "no"] for c in record["cells"]],
    )


register(Experiment(
    name="noise_sweep",
    experiment_id="E9",
    title="Co-runner noise sensitivity (Section IV-B1)",
    spec=_NOISE_SPEC,
    plan=_noise_plan,
    trial=_noise_trial,
    finalize=_round_finalize,
    render=_noise_render,
))


# ----------------------------------------------------------------------
# E10 — observation-channel taxonomy
# ----------------------------------------------------------------------

_TAXONOMY_SPEC = spec(
    Param("segment", "int", 2, "target segment for the 2-bit recovery"),
    Param("seed", "int", 0, "base seed"),
    Param("timing_samples", "int", 3_000,
          "latency samples for the time-driven variant"),
)

_CHANNELS = ("access", "trace", "time")


def _taxonomy_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [CellPlan(cell={"channel": channel}, trials=1)
            for channel in _CHANNELS]


def _taxonomy_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                    trial_index: int, seed: int) -> Dict[str, Any]:
    from ..targets.gift import round_keys
    from ..variants import TimeDrivenAttack, TraceDrivenAttack

    # One shared victim key per sweep so all three channels answer the
    # same question; the per-channel seed still differs via the cell.
    planted = derive_key(128, "taxonomy", params["seed"])
    victim = TracedGift64(planted)
    segment = params["segment"]
    u1, v1 = round_keys(planted, 1, width=64)[0]
    truth = ((v1 >> segment) & 1, (u1 >> segment) & 1)

    channel = cell["channel"]
    if channel == "access":
        observes = "resident cache lines"
        ended = run_attack(GrinchAttack(victim, AttackConfig(seed=seed)),
                           "first_round")
        if not ended.recovered:
            return ended.trial(observes=observes, correct=False)
        # Like the two variants, report the segment's own encryptions.
        outcome = ended.result.outcome.segments[segment]
        return ended.trial(
            encryptions=outcome.encryptions, observes=observes,
            correct=declassify(truth in tuple(outcome.key_pairs)),
        )
    if channel == "trace":
        outcome = TraceDrivenAttack(victim, seed=seed) \
            .recover_segment(segment)
        observes = "victim hit/miss sequence"
    else:
        outcome = TimeDrivenAttack(victim, seed=seed) \
            .recover_segment(segment, samples=params["timing_samples"])
        observes = "window latency only"
    return {
        "encryptions": outcome.encryptions,
        "observes": observes,
        "correct": declassify(truth in tuple(outcome.key_pairs)),
    }


def _taxonomy_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_table

    labels = {"access": "access-driven (GRINCH)",
              "trace": "trace-driven", "time": "time-driven"}
    return format_table(
        f"E10 — observation-channel taxonomy (2 key bits, segment "
        f"{record['params']['segment']})",
        ["Channel", "Encryptions", "Observes"],
        [[labels[c["cell"]["channel"]], str(c["encryptions"]),
          c["observes"]] for c in record["cells"]],
    )


register(Experiment(
    name="taxonomy",
    experiment_id="E10",
    title="Access- vs. trace- vs. time-driven recovery",
    spec=_TAXONOMY_SPEC,
    plan=_taxonomy_plan,
    trial=_taxonomy_trial,
    finalize=_passthrough_finalize,
    render=_taxonomy_render,
))


# ----------------------------------------------------------------------
# E11 — GRINCH on GIFT-128
# ----------------------------------------------------------------------

_GIFT128_SPEC = spec(
    Param("runs", "int", 1, "number of random victim keys"),
    Param("seed", "int", 0, "base seed"),
)


def _gift128_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    if params["runs"] < 1:
        raise ValueError(f"runs must be positive, got {params['runs']}")
    return [CellPlan(cell={}, trials=params["runs"])]


def _gift128_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                   trial_index: int, seed: int) -> Dict[str, Any]:
    from ..targets.gift import TracedGift128

    planted = derive_key(128, seed)
    attack = GrinchAttack(TracedGift128(planted), AttackConfig(seed=seed))
    return run_attack(attack, "full_key", planted).trial()


def _gift128_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import render_effort_series

    return render_effort_series(
        f"E11 — GRINCH on GIFT-128 ({record['params']['runs']} random "
        f"keys, all recovered: {record['cells'][0]['all_recovered']})",
        record["cells"][0]["summary"],
    )


register(Experiment(
    name="gift128",
    experiment_id="E11",
    title="GRINCH on GIFT-128 (NIST-LWC variant)",
    spec=_GIFT128_SPEC,
    plan=_gift128_plan,
    trial=_gift128_trial,
    finalize=key_recovery_finalize,
    render=_gift128_render,
))


# ----------------------------------------------------------------------
# E12 — memory-hierarchy effect (paper future work)
# ----------------------------------------------------------------------

_HIERARCHY_SPEC = spec(
    Param("seed", "int", 41, "base seed"),
    Param("blind_segment_budget", "int", 500,
          "per-segment budget for the expected-to-fail exclusive case"),
)

_HIERARCHY_CONFIGS = ("baseline", "inclusive", "exclusive")


def _hierarchy_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [CellPlan(cell={"configuration": name}, trials=1)
            for name in _HIERARCHY_CONFIGS]


def _hierarchy_trial(params: Mapping[str, Any], cell: Dict[str, Any],
                     trial_index: int, seed: int) -> Dict[str, Any]:
    from ..cache.multilevel import InclusionPolicy
    from ..core.crosscore import make_cross_core_runner

    # One planted key per sweep: the three configurations must answer
    # for the same victim.
    planted = derive_key(128, "hierarchy", params["seed"])
    victim = TracedGift64(planted)
    configuration = cell["configuration"]
    if configuration == "baseline":
        attack = GrinchAttack(victim, AttackConfig(seed=seed))
    else:
        config = AttackConfig(seed=seed, max_total_encryptions=None)
        if configuration == "exclusive":
            # Expected to fail: a small per-segment budget keeps it quick.
            config = replace(config, max_encryptions_per_segment=params[
                "blind_segment_budget"])
        attack = GrinchAttack(
            victim, config,
            runner=make_cross_core_runner(victim, config,
                                          InclusionPolicy(configuration)),
        )
    return run_attack(attack, "full_key", planted).trial()


def _hierarchy_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_table

    labels = {
        "baseline": "single shared L1 (paper setup)",
        "inclusive": "cross-core, inclusive shared L2",
        "exclusive": "cross-core, exclusive shared L2",
    }
    failures = {outcome: error.__name__
                for error, outcome in FAILURE_OUTCOMES.items()}
    rows = []
    for cell in record["cells"]:
        outcome = cell["outcome"]
        if outcome in failures:
            text = f"attack fails ({failures[outcome]})"
        else:
            label = "key recovered" if cell["recovered"] else "WRONG KEY"
            text = f"{label}, {cell['encryptions']} encryptions"
        rows.append([labels[cell["cell"]["configuration"]], text])
    return format_table(
        "E12 — memory hierarchy (paper future work)",
        ["Configuration", "Outcome"],
        rows,
    )


register(Experiment(
    name="memory_hierarchy",
    experiment_id="E12",
    title="Cross-core GRINCH through a shared L2",
    spec=_HIERARCHY_SPEC,
    plan=_hierarchy_plan,
    trial=_hierarchy_trial,
    finalize=_passthrough_finalize,
    render=_hierarchy_render,
))


# ----------------------------------------------------------------------
# E13 — NoC contention sensitivity
# ----------------------------------------------------------------------

_NOC_SPEC = spec(
    Param("traffic_intervals", "int_list", (0, 200, 24, 8),
          "victim packet injection periods in cycles (0 = idle)"),
    Param("frequency_mhz", "int", 50, "MPSoC clock in MHz"),
    Param("probes", "int", 64, "attacker probes per measurement"),
)


def _noc_plan(params: Mapping[str, Any]) -> List[CellPlan]:
    return [CellPlan(cell={"traffic_interval_cycles": interval}, trials=1)
            for interval in params["traffic_intervals"]]


def _noc_trial(params: Mapping[str, Any], cell: Dict[str, Any],
               trial_index: int, seed: int) -> Dict[str, Any]:
    from ..soc import ClockDomain, measure_probe_contention

    report = measure_probe_contention(
        ClockDomain(params["frequency_mhz"] * 1e6),
        traffic_interval_cycles=cell["traffic_interval_cycles"],
        probes=params["probes"],
    )
    return {
        "mean_round_trip_s": report.mean_round_trip_s,
        "worst_round_trip_s": report.worst_round_trip_s,
        "slowdown": report.slowdown,
        "probes_completed": report.probes_completed,
    }


def _noc_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                  trials: List[Any]) -> Dict[str, Any]:
    (payload,) = trials
    return {"cell": cell, "trials": trials, "summary": None, **payload}


def _noc_render(record: Dict[str, Any]) -> str:
    from ..analysis.reporting import format_table

    rows = []
    for cell in record["cells"]:
        interval = cell["cell"]["traffic_interval_cycles"]
        label = "idle" if interval == 0 else f"1 read / {interval} cycles"
        rows.append([
            label,
            f"{cell['mean_round_trip_s'] * 1e9:.0f} ns",
            f"{cell['worst_round_trip_s'] * 1e9:.0f} ns",
            f"x{cell['slowdown']:.2f}",
        ])
    return format_table(
        f"E13 — NoC contention on attacker probes "
        f"({record['params']['frequency_mhz']} MHz MPSoC)",
        ["Victim traffic", "Mean round trip", "Worst", "Slowdown"],
        rows,
    )


register(Experiment(
    name="noc_contention",
    experiment_id="E13",
    title="Attacker probe latency under victim NoC traffic",
    spec=_NOC_SPEC,
    plan=_noc_plan,
    trial=_noc_trial,
    finalize=_noc_finalize,
    render=_noc_render,
))

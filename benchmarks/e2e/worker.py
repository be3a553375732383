"""One benchmark process: set up, then attack in a closed loop.

Started by ``run.py``; not meant to be run by hand.  Modes:

* ``setup``: import, build the first victim and channel, finish one
  warm-up attack (index -1), print ``ready`` and exit.  ``run.py``
  times spawn-to-ready over several such processes for ``setup_s``.
* ``measure``: the same set-up, ``ready``, then the untraced closed
  loop: one attack at a time, no threads, a reference-loop timing after
  every attack.  Prints one JSON record.
* ``trace``: the set-up, then each attack twice, untraced and traced,
  alternating which goes first.  Prints one JSON record with the spans.

The process imports ``repro`` from the ``src/`` of the checkout it sits
in, and refuses to run against any other copy.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src"
sys.path.insert(0, str(SOURCE))

import repro  # noqa: E402

if not pathlib.Path(repro.__file__).resolve().is_relative_to(SOURCE):
    sys.exit(f"repro was imported from {repro.__file__}, not from {SOURCE}")

from repro import TracedGift64  # noqa: E402
from repro.cache import InclusionPolicy  # noqa: E402
from repro.core import (  # noqa: E402
    AttackConfig,
    AttackError,
    GrinchAttack,
    LossyChannel,
    make_cross_core_runner,
)
from repro.seeding import derive_key, derive_seed  # noqa: E402
from repro.targets import get_target  # noqa: E402

import tracer  # noqa: E402
from reference import REF_NOMINAL_MS, time_reference  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Attempts per key before the attack counts as failed.  An attempt
#: that ends in a typed ``AttackError`` is retried with a fresh attacker
#: seed, as a real attacker would; the retry's time and encryptions are
#: charged to the same attack.
MAX_ATTEMPTS = 4

GIFT64 = get_target("gift64")


def attack_config(workload: str, seed: int) -> AttackConfig:
    if workload == "fullsim_fullkey":
        return AttackConfig(seed=seed, use_fast_path=False)
    if workload == "lossy_fullkey":
        return AttackConfig(seed=seed,
                            loss=LossyChannel(miss_probability=0.15))
    if workload == "batch_fullkey":
        return AttackConfig(seed=seed, batch_size=32)
    if workload == "crosscore_firstround":
        return AttackConfig(seed=seed, max_total_encryptions=None)
    return AttackConfig(seed=seed)


def make_attack(workload: Workload, victim: TracedGift64,
                seed: int) -> GrinchAttack:
    config = attack_config(workload.name, seed)
    runner = None
    if workload.name == "crosscore_firstround":
        # The enum, never the string "inclusive": TwoLevelHierarchy
        # compares with ``is``, so a string builds a hierarchy that is
        # neither inclusive nor exclusive.
        runner = make_cross_core_runner(victim, config,
                                        InclusionPolicy.INCLUSIVE)
    return GrinchAttack(victim, config, runner=runner)


def attempt_seed(seed: int, index: int, attempt: int) -> int:
    if attempt == 0:
        return derive_seed("bench-e2e", seed, index)
    return derive_seed("bench-e2e", seed, index, attempt)


def wrong_key(workload: Workload, victim: TracedGift64,
              result: Any) -> Optional[str]:
    """Why ``result`` does not hold the planted key, or ``None``."""
    if workload.entry == "full_key":
        if result.master_key != victim.master_key or not result.verified:
            return (f"recovered {result.master_key:#034x}, planted "
                    f"{victim.master_key:#034x}")
        return None
    first_key = victim.compute_round_keys()[0]
    estimate = result.outcome.estimate
    for segment in range(GIFT64.segments):
        truth = tuple(GIFT64.segment_key_bits(first_key, segment))
        if truth not in estimate.pair_candidates[segment]:
            return (f"round-1 segment {segment}: planted bits {truth} not "
                    f"among {estimate.pair_candidates[segment]}")
    return None


def run_attack(workload: Workload, seed: int, index: int,
               keep: Optional[List[Any]] = None) -> Dict[str, Any]:
    """Attack key ``index`` until it falls or the attempts run out.

    Returns the raw wall time, the per-attempt encryption counts and
    typed errors, the successful result, and a ``violation`` message if
    that result is not the planted key.  Any exception other than an
    ``AttackError`` propagates and aborts the run.  ``keep`` receives
    every attempt's ``GrinchAttack`` (for simulator statistics).
    """
    victim = TracedGift64(derive_key(128, "bench-e2e", seed, index))
    encryptions: List[int] = []
    errors: List[str] = []
    result = None
    start = time.perf_counter()
    for attempt in range(MAX_ATTEMPTS):
        attack = make_attack(workload, victim,
                             attempt_seed(seed, index, attempt))
        if keep is not None:
            keep.append(attack)
        try:
            if workload.entry == "full_key":
                result = attack.recover_master_key()
            else:
                result = attack.attack_first_round()
        except AttackError as error:
            encryptions.append(attack.total_encryptions)
            errors.append(type(error).__name__)
            continue
        encryptions.append(attack.total_encryptions)
        break
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    violation = None
    if result is not None:
        violation = wrong_key(workload, victim, result)
        if violation is not None:
            violation = f"attack {index}: {violation}"
    return {
        "ms": elapsed_ms,
        "encryptions": encryptions,
        "errors": errors,
        "recovered": result is not None,
        "result": result,
        "violation": violation,
    }


def set_up(workload: Workload) -> None:
    """Everything ``ready`` promises: imports, victim, channel, warm-up.

    The warm-up is attack -1 of seed 0 whatever the run's seed, so that
    set-up does the same work in every run.
    """
    run_attack(workload, 0, -1)


def closed_loop(prefix: int, seconds: float,
                step: Callable[[int], None]) -> List[float]:
    """Call ``step(i)`` for i = 0, 1, ... until ``prefix`` attacks are
    done and ``seconds`` have passed.

    Returns the reference-loop timings: one before the first attack and
    one after every attack.  The host's speed swings within a tenth of a
    second here, so only references taken right beside an attack track
    it: bracketing each attack halved the per-attack spread of
    calibrated time, where one reference per ten attacks barely helped.
    """
    references = [time_reference()]
    start = time.perf_counter()
    index = 0
    while index < prefix or time.perf_counter() - start < seconds:
        step(index)
        index += 1
        references.append(time_reference())
    return references


def scales(references: List[float]) -> List[float]:
    """Per-attack calibration factor ``REF_NOMINAL_MS / reference``,
    where ``reference`` is the mean of the timings just before and just
    after the attack."""
    return [
        2.0 * REF_NOMINAL_MS / (before + after)
        for before, after in zip(references, references[1:])
    ]


def percentile(values: List[float], fraction: float) -> float:
    """Inclusive-method quantile (the median at ``fraction=0.5``)."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def effort(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Exact effort metrics of a fixed attack prefix."""
    totals = [sum(record["encryptions"]) for record in records]
    attempts = sum(len(record["encryptions"]) for record in records)
    return {
        "encryptions_per_attack_p50": percentile(totals, 0.5),
        "encryptions_per_attack_p90": percentile(totals, 0.9),
        "attempts_per_attack": attempts / len(records),
        "failure_rate": sum(len(r["errors"]) for r in records) / attempts,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seed: int, seconds: float,
            prefix: int) -> Dict[str, Any]:
    records: List[Dict[str, Any]] = []

    def step(index: int) -> None:
        record = run_attack(workload, seed, index)
        # Results are checked already; keeping them would make the
        # peak RSS grow with the number of attacks a host manages.
        del record["result"]
        records.append(record)

    references = closed_loop(prefix, seconds, step)
    rss = peak_rss_mb()
    factors = scales(references)
    raw_ms = [record["ms"] for record in records]
    calibrated_ms = [ms * scale for ms, scale in zip(raw_ms, factors)]
    encryptions = sum(sum(record["encryptions"]) for record in records)
    attack_s = sum(calibrated_ms) / 1000.0
    raw_s = sum(raw_ms) / 1000.0
    exact = effort(records[:prefix])
    metrics = {
        "attacks_per_s": len(records) / attack_s,
        "encryptions_per_s": encryptions / attack_s,
        "attack_ms_p50": statistics.median(calibrated_ms),
        "encryptions_per_attack_p50": exact["encryptions_per_attack_p50"],
        "encryptions_per_attack_p90": exact["encryptions_per_attack_p90"],
        "attempts_per_attack": exact["attempts_per_attack"],
        "peak_rss_mb": rss,
    }
    raw = {
        "attacks_per_s_raw": len(records) / raw_s,
        "encryptions_per_s_raw": encryptions / raw_s,
        "attack_ms_p50_raw": statistics.median(raw_ms),
        "attack_ms_p90_raw": percentile(raw_ms, 0.9),
        "reference_ms_p50": statistics.median(references),
        "failure_rate": exact["failure_rate"],
    }
    violations = [r["violation"] for r in records if r["violation"]]
    if workload.name == "fullsim_fullkey":
        violations += cross_check_fast_path(seed, records[:prefix])
    leftover = tracer.installed_wrappers()
    if leftover:
        violations.append(f"untraced run carries wrappers: {leftover}")
    return {
        "metrics": metrics,
        "raw": raw,
        "attempted": len(records),
        "failed": sum(1 for record in records if not record["recovered"]),
        "prefix": prefix,
        "wrappers_installed": len(leftover),
        "violations": violations,
        "references_ms": references,
        "attacks": [{key: record[key] for key in ("ms", "encryptions",
                                                  "errors")}
                    for record in records],
    }


def cross_check_fast_path(seed: int,
                          records: List[Dict[str, Any]]) -> List[str]:
    """The full simulation must spend exactly the fast path's effort."""
    fast = WORKLOADS["fast_fullkey"]
    violations = []
    for index, record in enumerate(records):
        expected = run_attack(fast, seed, index)["encryptions"]
        if record["encryptions"] != expected:
            violations.append(
                f"attack {index}: full path spent {record['encryptions']} "
                f"encryptions, fast path {expected}"
            )
    return violations


def trace(workload: Workload, seed: int, seconds: float,
          prefix: int) -> Dict[str, Any]:
    spans = tracer.Tracer()
    pairs: List[Dict[str, Any]] = []

    def traced_run(index: int) -> Dict[str, Any]:
        attacks: List[Any] = []
        spans.reset()
        spans.install()
        try:
            record = run_attack(workload, seed, index, keep=attacks)
        finally:
            spans.uninstall()
        record["spans"] = spans.rows()
        record["functions"] = dict(spans.functions)
        record["drops"] = list(spans.drops)
        record["simulator"] = simulator_counts(attacks)
        record["segments"] = segment_counts(record.pop("result"))
        return record

    def step(index: int) -> None:
        if index % 2 == 0:
            untraced = run_attack(workload, seed, index)
            traced = traced_run(index)
        else:
            traced = traced_run(index)
            untraced = run_attack(workload, seed, index)
        traced["untraced_ms"] = untraced["ms"]
        traced["untraced_encryptions"] = untraced["encryptions"]
        pairs.append(traced)

    references = closed_loop(prefix, seconds, step)
    violations = [pair["violation"] for pair in pairs if pair["violation"]]
    violations += [
        f"attack {index}: traced run spent {pair['encryptions']} "
        f"encryptions, untraced {pair['untraced_encryptions']}"
        for index, pair in enumerate(pairs)
        if pair["encryptions"] != pair["untraced_encryptions"]
    ]
    attacks = []
    for index, (pair, scale) in enumerate(zip(pairs, scales(references))):
        attacks.append({
            "attack": index,
            "encryptions": pair["encryptions"],
            "errors": pair["errors"],
            "traced_ms": pair["ms"],
            "untraced_ms": pair["untraced_ms"],
            "scale": scale,
            "spans": pair["spans"],
            "functions": pair["functions"],
            "drops": pair["drops"],
            "simulator": pair["simulator"],
            "segments": pair["segments"],
        })
    return {
        "metrics": layer_metrics(attacks, prefix),
        "attempted": len(pairs),
        "failed": sum(1 for pair in pairs if not pair["recovered"]),
        "prefix": prefix,
        "violations": violations,
        "references_ms": references,
        "attacks": attacks,
    }


def simulator_counts(attacks: List[Any]) -> Dict[str, int]:
    """Cache counters the simulated hardware kept during the attempts."""
    counts = {"accesses": 0, "hits": 0, "l1_hits": 0, "l2_hits": 0,
              "memory_fetches": 0}
    for attack in attacks:
        transport = attack.runner.transport
        cache = getattr(transport, "cache", None)
        if cache is not None:
            counts["accesses"] += cache.stats.accesses
            counts["hits"] += cache.stats.hits
        hierarchy = getattr(transport, "hierarchy", None)
        if hierarchy is not None:
            counts["l1_hits"] += hierarchy.stats.l1_hits
            counts["l2_hits"] += hierarchy.stats.l2_hits
            counts["memory_fetches"] += hierarchy.stats.memory_fetches
    return counts


def segment_counts(result: Any) -> Dict[str, int]:
    """Hypotheses and voting retries over the successful attempt's
    segments (the verification stage keeps no segment records)."""
    if result is None:
        return {"segments": 0, "hypotheses": 0, "retries": 0}
    rounds = getattr(result, "rounds", None) or [result.outcome]
    segments = [segment for outcome in rounds for segment in outcome.segments]
    return {
        "segments": len(segments),
        "hypotheses": sum(s.hypotheses_tried for s in segments),
        "retries": sum(s.retries for s in segments),
    }


def layer_metrics(attacks: List[Dict[str, Any]],
                  prefix: int) -> Dict[str, float]:
    """Per-layer metrics: counts over the prefix, times over every
    traced attack (calibrated like the untraced run)."""
    exact = attacks[:prefix]
    calls = {layer: 0 for layer in tracer.LAYERS}
    for attack in exact:
        for layer, _, count, _, _ in attack["spans"]:
            calls[layer] += count
    own_ms = {layer: 0.0 for layer in tracer.LAYERS}
    for attack in attacks:
        for layer, _, _, _, own in attack["spans"]:
            own_ms[layer] += own * attack["scale"]
    wall_ms = sum(a["traced_ms"] * a["scale"] for a in attacks)
    metrics: Dict[str, float] = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.calls"] = calls[layer] / len(exact)
        metrics[f"{layer}.self_ms"] = own_ms[layer] / len(attacks)
        metrics[f"{layer}.share"] = own_ms[layer] / wall_ms

    def total(key: str, group: str) -> int:
        return sum(attack[group][key] for attack in exact)

    encryptions = sum(sum(attack["encryptions"]) for attack in exact)
    updates = sum(
        attack["functions"].get(name, 0)
        for attack in exact
        for name in ("CandidateEliminator.update", "VotingEliminator.update")
    )
    fills = (total("l1_hits", "simulator") + total("l2_hits", "simulator")
             + total("memory_fetches", "simulator"))
    lines_in = sum(attack["drops"][0] for attack in exact)
    lines_out = sum(attack["drops"][1] for attack in exact)
    segments = total("segments", "segments")
    metrics.update({
        "cache.setassoc.hit_rate": _ratio(total("hits", "simulator"),
                                          total("accesses", "simulator")),
        "cache.multilevel.l1_hit_rate": _ratio(
            total("l1_hits", "simulator"), fills),
        "cache.multilevel.memory_fetch_rate": _ratio(
            total("memory_fetches", "simulator"), fills),
        "channel.degradation.drop_rate": _ratio(lines_in - lines_out,
                                                lines_in),
        "core.attack.observations_used_ratio": _ratio(updates, encryptions),
        "core.attack.hypotheses_per_segment": _ratio(
            total("hypotheses", "segments"), segments),
        "core.voting.retries_per_segment": _ratio(
            total("retries", "segments"), segments),
        "tracing_overhead": (
            sum(a["traced_ms"] for a in attacks)
            / sum(a["untraced_ms"] for a in attacks) - 1.0
        ),
    })
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--attacks", type=int, default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    set_up(workload)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        prefix = args.attacks or workload.prefix
        record = measure(workload, args.seed, args.seconds, prefix)
    else:
        prefix = args.attacks or workload.trace_prefix
        record = trace(workload, args.seed, args.seconds, prefix)
    record.update(workload=workload.name, seed=args.seed, mode=args.mode,
                  seconds=args.seconds)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

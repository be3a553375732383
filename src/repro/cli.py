"""Command-line interface: ``python -m repro <command>``.

Exposes the headline attack and the unified experiment engine:

.. code-block:: console

   $ python -m repro attack --seed 7
   $ python -m repro attack --width 128 --line-words 2
   $ python -m repro run --list
   $ python -m repro run table1 --workers 4 --seed 7 --json
   $ python -m repro run E9 --set levels=0.0:0,0.5:2 --no-cache
   $ python -m repro theory --line-words 4
   $ python -m repro perf --quick --json
   $ python -m repro staticcheck leakage --check-budget
   $ python -m repro trace record --target gift64 --out run.grtr
   $ python -m repro trace replay run.grtr --check

``run`` executes any registered experiment (E1–E20) through
:mod:`repro.engine` — Fig. 3 is ``run figure3``, Table I ``run table1``,
Table II ``run table2``, Section IV-C ``run countermeasures``.
Monte-Carlo trials fan out over ``--workers`` processes (bit-identical
results at any worker count), finished records are served from the
content-addressed result cache, and ``--json`` emits the
schema-validated artifact record.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from .analysis import (
    expected_first_round_effort,
    flush_advantage,
    growth_factor_per_round,
    practical_probing_round_limit,
)
from .cache.geometry import CacheGeometry
from .core import AttackConfig, GrinchAttack
from .engine import (
    FULL_EFFORT,
    ProgressPrinter,
    derive_key,
    get as get_experiment,
    names as experiment_names,
    render_record,
    results_dir,
    run_experiment,
)
from .targets.gift import TracedGift64, TracedGift128


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GRINCH cache attack against GIFT — reproduction CLI",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    attack = commands.add_parser(
        "attack", help="run a full GRINCH key recovery"
    )
    attack.add_argument("--key", type=lambda v: int(v, 16), default=None,
                        help="victim master key (hex; default: derived "
                             "from --seed)")
    attack.add_argument("--width", type=int, choices=(64, 128), default=64,
                        help="GIFT variant (default: 64)")
    attack.add_argument("--seed", type=int, default=0,
                        help="attacker RNG seed")
    attack.add_argument("--line-words", type=int, choices=(1, 2, 4, 8),
                        default=1, help="cache line size in words")
    attack.add_argument("--probing-round", type=int, default=1,
                        help="round at which the probe lands (>= 1)")
    attack.add_argument("--no-flush", action="store_true",
                        help="disable the mid-encryption flush")
    attack.add_argument("--probe", choices=("flush_reload", "prime_probe"),
                        default="flush_reload", help="probing primitive")

    run = commands.add_parser(
        "run",
        help="run a registered experiment through the engine (E1-E20)",
    )
    run.add_argument("experiment", nargs="?", default=None,
                     help="experiment name or DESIGN.md ID (see --list)")
    run.add_argument("--list", action="store_true", dest="list_experiments",
                     help="list the registered experiments and exit")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes for the Monte-Carlo fan-out")
    run.add_argument("--seed", type=int, default=None,
                     help="override the experiment's seed parameter")
    run.add_argument("--json", action="store_true", dest="as_json",
                     help="print the JSON artifact record instead of "
                          "the ASCII rendering")
    run.add_argument("--no-cache", action="store_true",
                     help="bypass the content-addressed result cache")
    run.add_argument("--full", action="store_true",
                     help="raise the Monte-Carlo budget past the 1M "
                          "drop-out (equivalent to REPRO_FULL=1)")
    run.add_argument("--set", dest="assignments", action="append",
                     default=[], metavar="NAME=VALUE",
                     help="override an experiment parameter "
                          "(repeatable; see --list for the specs)")

    theory = commands.add_parser(
        "theory", help="analytic effort model for one configuration"
    )
    theory.add_argument("--line-words", type=int, choices=(1, 2, 4, 8),
                        default=1)
    theory.add_argument("--no-flush", action="store_true")

    staticcheck = commands.add_parser(
        "staticcheck",
        help="static leakage analysis (secret-dependent lookups/branches)",
    )
    staticcheck.add_argument(
        "staticcheck_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m repro.staticcheck",
    )

    perf = commands.add_parser(
        "perf",
        help="microbenchmark the hot paths and gate on perf ratios",
    )
    perf.add_argument(
        "perf_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m repro.perf",
    )

    trace = commands.add_parser(
        "trace",
        help="record, replay, convert and inspect attack traces (L0)",
    )
    trace.add_argument(
        "trace_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to the trace front-end",
    )
    return parser


def _cmd_attack(args: argparse.Namespace) -> int:
    key = args.key
    if key is None:
        key = derive_key(128, "cli-attack", args.seed)
    victim_cls = TracedGift64 if args.width == 64 else TracedGift128
    victim = victim_cls(key)
    config = AttackConfig(
        geometry=CacheGeometry(line_words=args.line_words),
        probing_round=args.probing_round,
        use_flush=not args.no_flush,
        probe_strategy=args.probe,
        stall_window=200 if args.probe == "prime_probe" else 0,
        seed=args.seed,
        max_total_encryptions=None,
    )
    print(f"victim: GIFT-{args.width}, key {key:032x}")
    result = GrinchAttack(victim, config).recover_master_key()
    print(f"recovered: {result.master_key:032x} "
          f"({'MATCH' if result.master_key == key else 'MISMATCH'})")
    print(f"victim encryptions: {result.total_encryptions}")
    for round_index, count in result.encryptions_by_round.items():
        print(f"  round {round_index}: {count}")
    return 0 if result.master_key == key else 1


# ----------------------------------------------------------------------
# The engine front-end
# ----------------------------------------------------------------------

def _parse_assignments(experiment_name: str,
                       assignments: List[str]) -> Dict[str, Any]:
    spec = get_experiment(experiment_name).spec
    overrides: Dict[str, Any] = {}
    for assignment in assignments:
        name, separator, text = assignment.partition("=")
        if not separator:
            raise SystemExit(
                f"--set expects NAME=VALUE, got {assignment!r}"
            )
        try:
            overrides[name] = spec.get(name).parse(text)
        except KeyError:
            known = ", ".join(p.name for p in spec) or "(none)"
            raise SystemExit(
                f"unknown parameter {name!r} for {experiment_name}; "
                f"known: {known}"
            ) from None
        except ValueError as error:
            raise SystemExit(f"--set {assignment!r}: {error}") from None
    return overrides


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list_experiments or args.experiment is None:
        if args.experiment is None and not args.list_experiments:
            print("usage: python -m repro run <experiment> [options]\n")
        for name in experiment_names():
            experiment = get_experiment(name)
            print(f"{experiment.experiment_id:>4}  {name:<20} "
                  f"{experiment.title}")
            for param in experiment.spec:
                print(f"      --set {param.name}=... "
                      f"[{param.kind}, default {param.default!r}] "
                      f"{param.help}")
        return 0
    try:
        experiment = get_experiment(args.experiment)
    except KeyError as error:
        raise SystemExit(str(error)) from None
    overrides = _parse_assignments(experiment.name, args.assignments)
    param_names = {param.name for param in experiment.spec}
    if args.seed is not None:
        if "seed" not in param_names:
            raise SystemExit(
                f"{experiment.name} has no seed parameter"
            )
        overrides.setdefault("seed", args.seed)
    if args.full and "max_simulated_effort" in param_names:
        overrides.setdefault("max_simulated_effort", FULL_EFFORT)
    record = run_experiment(
        experiment.name,
        overrides,
        workers=args.workers,
        use_cache=not args.no_cache,
        artifact_dir=results_dir(),
        progress=None if args.as_json else ProgressPrinter(),
    )
    if args.as_json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    print(render_record(record))
    telemetry = record["telemetry"]
    print(f"[{record['experiment_id']} {record['experiment']}: "
          f"{telemetry['trials_total']} trials, "
          f"{telemetry['wall_time_s']:.2f} s, "
          f"{telemetry['trials_per_s']:.1f} trials/s, "
          f"cache {telemetry['cache']}]")
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    use_flush = not args.no_flush
    print(f"analytic model, {args.line_words}-word lines, "
          f"{'with' if use_flush else 'without'} flush")
    for probing_round in range(1, 9):
        effort = expected_first_round_effort(
            args.line_words, probing_round, use_flush
        )
        marker = "" if effort <= 1_000_000 else "   <- drop-out (>1M)"
        print(f"  probing round {probing_round}: {effort:>14,.0f}{marker}")
    print(f"growth per round: x{growth_factor_per_round(args.line_words):.2f}")
    print(f"no-flush penalty: x{flush_advantage(2, args.line_words):.2f}")
    limit = practical_probing_round_limit(args.line_words, use_flush)
    print(f"practical limit : probing round {limit if limit else 'none'}")
    return 0


def _cmd_staticcheck(args: argparse.Namespace) -> int:
    from .staticcheck.cli import main as staticcheck_main

    return staticcheck_main(args.staticcheck_args)


def _cmd_perf(args: argparse.Namespace) -> int:
    from .perf.cli import main as perf_main

    return perf_main(args.perf_args)


def _cmd_trace(args: argparse.Namespace) -> int:
    from .tracecli import main as trace_main

    return trace_main(args.trace_args)


_HANDLERS = {
    "attack": _cmd_attack,
    "run": _cmd_run,
    "theory": _cmd_theory,
    "staticcheck": _cmd_staticcheck,
    "perf": _cmd_perf,
    "trace": _cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["perf"]:
        # argparse.REMAINDER refuses leading optionals (``perf --quick``),
        # so hand the tail straight to the perf front-end.
        return _cmd_perf(argparse.Namespace(perf_args=argv[1:]))
    if argv[:1] == ["staticcheck"]:
        # Same REMAINDER limitation for ``staticcheck --json`` and the
        # ``staticcheck leakage ...`` quantitative front-end.
        return _cmd_staticcheck(
            argparse.Namespace(staticcheck_args=argv[1:])
        )
    if argv[:1] == ["trace"]:
        # Same REMAINDER limitation for ``trace record --target ...``.
        return _cmd_trace(argparse.Namespace(trace_args=argv[1:]))
    args = _build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

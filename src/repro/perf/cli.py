"""``python -m repro perf`` — run the suite, gate, emit artifacts.

.. code-block:: console

   $ python -m repro perf                  # full suite, ASCII table
   $ python -m repro perf --quick --json   # CI perf-smoke invocation
   $ python -m repro perf --profile prof.out   # cProfile the suite

Exit status is non-zero when any ratio gate fails, so CI can consume
the command directly.  The trajectory baseline is read *before* this
run's entry is appended — each run is judged against its predecessor.
"""

from __future__ import annotations

import argparse
import cProfile
import json
from pathlib import Path
from typing import List, Optional

from .artifact import (
    append_trajectory,
    build_record,
    last_trajectory_ratio,
    results_dir,
    write_artifact,
)
from .suite import PerfReport, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro perf",
        description="microbenchmark the GRINCH hot paths and gate on "
                    "hardware-independent ratios",
    )
    parser.add_argument("--quick", action="store_true",
                        help="short timing floor, GIFT-64 only "
                             "(the CI perf-smoke configuration)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the benchmark inputs")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the BENCH_perf.json record instead "
                             "of the ASCII table")
    parser.add_argument("--output", type=Path, default=None, metavar="DIR",
                        help="artifact/trajectory directory (default: "
                             "the engine results directory)")
    parser.add_argument("--profile", type=Path, default=None, metavar="PATH",
                        help="run the suite under cProfile and dump "
                             "stats to PATH")
    parser.add_argument("--no-artifact", action="store_true",
                        help="measure and gate only; write nothing")
    return parser


def _render(report: PerfReport, record: dict) -> str:
    lines = [
        f"perf suite (seed {report.seed}"
        f"{', quick' if report.quick else ''})",
    ]
    for result in report.results:
        lines.append(
            f"  {result.name:<28} {result.ops_per_s:>12,.1f} ops/s "
            f"({result.ops} ops / {result.seconds:.3f} s)"
        )
    for name, ratio in sorted(record["ratios"].items()):
        lines.append(f"  {name:<28} {ratio:>11.2f}x")
    gates = record["gates"]
    baseline = gates["baseline_untraced_over_traced"]
    lines.append(
        f"  gates: min ratio {gates['min_untraced_over_traced']:.1f}x, "
        f"min batch ratio {gates['min_batch_over_untraced']:.1f}x, "
        f"min observation ratio "
        f"{gates['min_fast_observation_over_untraced']:.1f}x, "
        f"baseline "
        f"{'none' if baseline is None else format(baseline, '.2f') + 'x'}"
    )
    if gates["passed"]:
        lines.append("  PASS")
    else:
        for failure in gates["failures"]:
            lines.append(f"  FAIL: {failure}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.profile is not None:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            report = run_suite(quick=args.quick, seed=args.seed)
        finally:
            profiler.disable()
        profiler.dump_stats(str(args.profile))
    else:
        report = run_suite(quick=args.quick, seed=args.seed)

    directory = args.output if args.output is not None else results_dir()
    baseline = last_trajectory_ratio(directory)
    record = build_record(report, baseline)

    if not args.no_artifact:
        write_artifact(record, directory)
        append_trajectory(record, directory)

    if args.as_json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(_render(report, record))
        if args.profile is not None:
            print(f"  profile: {args.profile}")
    return 0 if record["gates"]["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare two sets of benchmark runs metric by metric.

Usage::

    python benchmarks/e2e/compare.py BASE.json NEW.json

Both files are ``runs.json`` files written by ``run.py --out DIR``.  For
every workload and end-to-end metric this prints each side's median and
quartiles, the change of the medians as a share of the base median
(positive = worse), the metric's bound from ``BENCHMARK.json``, how many
run pairs the new side won, and a label:

* ``worse``: the new median is worse than the base median by more than
  the bound;
* ``unresolved``: the base runs spread (third minus first quartile,
  over the median) wider than the bound, so the bound cannot be
  resolved, and not every new run beats every base run;
* ``ok``: neither of the above.

A ``gain`` note marks a metric where the new side won at least nine
tenths of the pairs and the medians differ by more than the base
quartile spread.  Runs pair up in file order, so record the two sides
alternately (parent, change, parent, ...), at least ten pairs.  The
exit code is 1 if any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

DEFINITION = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def judge(base: List[float], new: List[float], better: str,
          bound: float) -> Dict[str, Any]:
    """Label one metric on one workload (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    new_q1, new_median, new_q3 = quartiles(new)
    worse_by = sign * (new_median - base_median) / base_median
    spread = (base_q3 - base_q1) / base_median
    pairs = list(zip(base, new))
    wins = sum(1 for old, fresh in pairs if sign * (fresh - old) < 0)
    all_better = max(sign * value for value in new) < min(
        sign * value for value in base)
    if spread > bound and not all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "ok"
    gain = (bool(pairs) and wins >= 0.9 * len(pairs) and worse_by < 0
            and abs(new_median - base_median) > base_q3 - base_q1)
    return {
        "base": (base_q1, base_median, base_q3),
        "new": (new_q1, new_median, new_q3),
        "worse_by": worse_by,
        "spread": spread,
        "wins": wins,
        "pairs": len(pairs),
        "label": label,
        "gain": gain,
    }


def load_runs(path: pathlib.Path) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced runs of a ``runs.json`` file, grouped by workload."""
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for run in json.loads(path.read_text())["runs"]:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two runs.json files against the bounds in "
                    "BENCHMARK.json."
    )
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args(argv)
    specs = json.loads(DEFINITION.read_text())["end_to_end"]
    base_runs = load_runs(args.base)
    new_runs = load_runs(args.new)
    any_worse = False
    print(f"{'workload':22s} {'metric':28s} {'base q1/med/q3':>32s} "
          f"{'new q1/med/q3':>32s} {'worse by':>9s} {'bound':>6s} "
          f"{'wins':>6s}  label")
    for workload in sorted(set(base_runs) & set(new_runs)):
        for spec in specs:
            name = spec["name"]
            verdict = judge(
                [run["metrics"][name] for run in base_runs[workload]],
                [run["metrics"][name] for run in new_runs[workload]],
                spec["better"], spec["bound"],
            )
            any_worse = any_worse or verdict["label"] == "worse"
            base = "/".join(f"{value:.5g}" for value in verdict["base"])
            new = "/".join(f"{value:.5g}" for value in verdict["new"])
            note = "  gain" if verdict["gain"] else ""
            if verdict["pairs"] < 10:
                note += f"  ({verdict['pairs']} pairs, fewer than 10)"
            print(f"{workload:22s} {name:28s} {base:>32s} {new:>32s} "
                  f"{verdict['worse_by']:+9.2%} {spec['bound']:6.2f} "
                  f"{verdict['wins']:>3d}/{verdict['pairs']:<2d}  "
                  f"{verdict['label']}{note}")
    missing = sorted(set(base_runs) ^ set(new_runs))
    if missing:
        print(f"workloads on one side only: {', '.join(missing)}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())

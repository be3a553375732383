"""End-to-end GRINCH attack benchmark.

Usage::

    python benchmarks/e2e/run.py [--workload NAME] [--seed S]
                                 [--seconds T] [--trace [0|1]]
                                 [--out DIR] [--attacks N]

Each workload runs in fresh subprocesses, one after another, and the
load comes from one of them: a closed loop, one attack at a time, no
threads, ``OMP_NUM_THREADS=1``.  Without ``--trace`` (or with
``--trace 0``) a workload is the measured loop between five
spawn-to-ready timings for ``setup_s``, and the end-to-end metrics are
reported.  With ``--trace 1`` a separate process traces each layer
and the per-layer metrics are reported instead.  Every metric is printed
with its name and unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is non-zero if any correctness check fails or any process does not
finish.

``--out DIR`` appends each untraced run's full record to
``DIR/runs.json`` (the input of ``compare.py``) and writes traced runs
to ``DIR/trace-<workload>.json``.  ``--attacks N`` shrinks every fixed
attack prefix to ``N`` (for smoke tests).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.py"
DEFINITION = ROOT / "BENCHMARK.json"

#: Fresh interpreters timed for ``setup_s``.
SETUP_RUNS = 5

#: Typical spawn-to-exit time of ``reference.py`` run as a script on the
#: reference box.  ``setup_s`` is calibrated against that process, not
#: against the reference loop: starting and importing slowed down only
#: about 0.6 times as much as the loop when the host slowed, while the
#: reference process, which starts and imports too, tracked set-up with
#: a slope of 0.7 to 0.9 and cut its spread by a third.
SPAWN_NOMINAL_S = 0.2

#: Every process of one workload run must end within this many seconds.
DEADLINE_S = 170.0

#: Host-time numbers printed beside the calibrated metrics, not gated.
RAW_UNITS = {
    "attacks_per_s_raw": "1/s",
    "encryptions_per_s_raw": "1/s",
    "attack_ms_p50_raw": "ms",
    "attack_ms_p90_raw": "ms",
    "reference_ms_p50": "ms",
    "setup_s_raw": "s",
    "failure_rate": "fraction",
}


class BenchmarkError(Exception):
    """A process failed or the benchmark definition is inconsistent."""


def load_definition() -> Dict[str, Any]:
    with open(DEFINITION) as handle:
        return json.load(handle)


def metric_specs(definition: Dict[str, Any], traced: bool
                 ) -> Dict[str, Dict[str, Any]]:
    key = "per_layer" if traced else "end_to_end"
    return {spec["name"]: spec for spec in definition[key]}


def _environment() -> Dict[str, str]:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def time_reference_spawn(deadline: float) -> float:
    """Spawn-to-exit seconds of the set-up reference process."""
    start = time.perf_counter()
    try:
        subprocess.run([sys.executable, str(REFERENCE)], check=True,
                       cwd=ROOT, env=_environment(),
                       timeout=max(0.0, deadline - time.monotonic()))
    except (subprocess.SubprocessError, OSError) as error:
        raise BenchmarkError(f"reference process failed: {error}")
    return time.perf_counter() - start


def spawn(arguments: List[str], deadline: float) -> Dict[str, Any]:
    """Run one worker; time it from spawn to its ``ready`` line.

    Returns ``{"ready_s": ..., "record": parsed JSON or None}``.  A
    worker that fails, or outlives ``deadline`` (killed), raises
    :class:`BenchmarkError`.
    """
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(WORKER), *arguments],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_environment(),
    )
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               process.kill)
    watchdog.start()
    try:
        first = process.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = process.stdout.read()
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise BenchmarkError(
            f"worker {' '.join(arguments)} exited with code {code}"
        )
    lines = rest.strip().splitlines()
    return {"ready_s": ready_s,
            "record": json.loads(lines[-1]) if lines else None}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 attacks: Optional[int]) -> Dict[str, Any]:
    """One workload run; returns the worker's record plus ``setup_s``."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)]
    extra = ["--seconds", str(seconds)]
    if attacks is not None:
        extra += ["--attacks", str(attacks)]
    if traced:
        return spawn(base + ["--mode", "trace"] + extra, deadline)["record"]
    # The set-up timings straddle the measured loop, so that one slow
    # spell of the host cannot take them all, and each is calibrated by
    # the reference spawn timed just before it.
    samples = []
    record: Dict[str, Any] = {}
    for index in range(SETUP_RUNS + 1):
        if index == SETUP_RUNS // 2:
            record = spawn(base + ["--mode", "measure"] + extra,
                           deadline)["record"]
            continue
        reference_s = time_reference_spawn(deadline)
        samples.append((spawn(base + ["--mode", "setup"],
                              deadline)["ready_s"], reference_s))
    record["metrics"]["setup_s"] = statistics.median(
        ready * SPAWN_NOMINAL_S / reference for ready, reference in samples
    )
    record["raw"]["setup_s_raw"] = statistics.median(
        ready for ready, _ in samples
    )
    record["raw"]["setup_s_samples"] = samples
    return record


def report(record: Dict[str, Any], specs: Dict[str, Dict[str, Any]]
           ) -> Dict[str, Dict[str, Any]]:
    """Print one workload's metrics; return them in the result schema."""
    metrics = record["metrics"]
    missing = sorted(set(specs) - set(metrics))
    if missing:
        raise BenchmarkError(
            f"{record['workload']}: BENCHMARK.json metrics not emitted: "
            f"{missing}"
        )
    print(f"{record['workload']}  seed {record['seed']}  mode "
          f"{record['mode']}  attacks {record['attempted']} (exact prefix "
          f"{record['prefix']})  failed {record['failed']}")
    for name, spec in specs.items():
        print(f"  {name:44s} {metrics[name]:14.6g} {spec['unit']}")
    for name, value in record.get("raw", {}).items():
        if name in RAW_UNITS:
            print(f"  {name:44s} {value:14.6g} {RAW_UNITS[name]}  "
                  f"(not gated)")
    for name in sorted(set(metrics) - set(specs)):
        # Self time of a layer some workload never enters: it would
        # read a constant 0 there, so it lives in the trace file only.
        print(f"  {name:44s} {metrics[name]:14.6g} ms  (trace file only)")
    for violation in record["violations"]:
        print(f"  VIOLATION: {violation}")
    return {name: {"value": metrics[name], "unit": spec["unit"]}
            for name, spec in specs.items()}


def save(record: Dict[str, Any], out: pathlib.Path) -> None:
    """Write a traced run to its own file, or append an untraced one to
    ``runs.json`` (one compact run per line)."""
    out.mkdir(parents=True, exist_ok=True)
    if record["mode"] == "trace":
        path = out / f"trace-{record['workload']}.json"
        path.write_text(_compact(record) + "\n")
        return
    path = out / "runs.json"
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    path.write_text('{"runs": [\n' + ",\n".join(map(_compact, runs))
                    + "\n]}\n")


def _compact(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"))


def main(argv: Optional[List[str]] = None) -> int:
    definition = load_definition()
    parser = argparse.ArgumentParser(
        description="End-to-end GRINCH attack benchmark (see README.md)."
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(definition["run_seconds"]))
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=("0", "1"))
    parser.add_argument("--out", type=pathlib.Path)
    parser.add_argument("--attacks", type=int,
                        help="override every fixed attack prefix")
    args = parser.parse_args(argv)
    if args.attacks is not None and args.attacks < 1:
        parser.error("--attacks must be at least 1")
    traced = args.trace == "1"
    specs = metric_specs(definition, traced)
    names = [args.workload] if args.workload else list(WORKLOADS)

    results: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    correct = True
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, traced,
                                  args.attacks)
            if args.out is not None:
                save(record, args.out)
            metrics = report(record, specs)
            attempted += record["attempted"]
            failed += record["failed"]
            correct = correct and not record["violations"]
            if len(names) == 1:
                results = metrics
            else:
                results.update({f"{name}.{metric}": value
                                for metric, value in metrics.items()})
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

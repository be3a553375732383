"""Tests of the end-to-end benchmark itself.

Run from the repository root with::

    PYTHONPATH=src python -m pytest benchmarks/e2e

They smoke-run every workload on a few attacks, so they take about a
minute; they are not part of the tier-1 suite (``testpaths = tests``).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from typing import Any, Dict, List

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from compare import judge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("encryptions_per_attack_p50", "encryptions_per_attack_p90",
         "attempts_per_attack")


def run(*arguments: str) -> Dict[str, Any]:
    """Run the benchmark command; return its last-line JSON result."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "0",
         "--attacks", "3", *arguments],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr + completed.stdout
    return json.loads(completed.stdout.splitlines()[-1])


def names(kind: str) -> List[str]:
    return [spec["name"] for spec in DEFINITION[kind]]


def test_definition_lists_the_workloads() -> None:
    assert [w["name"] for w in DEFINITION["workloads"]] == list(WORKLOADS)
    assert "setup_s" in names("end_to_end")
    assert len(names("per_layer")) <= 128


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke(workload: str, tmp_path: pathlib.Path) -> None:
    out = str(tmp_path)
    result = run("--workload", workload, "--trace", "0", "--out", out)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3
    assert list(result["metrics"]) == names("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    record = json.loads((tmp_path / "runs.json").read_text())["runs"][0]
    assert record["wrappers_installed"] == 0

    traced = run("--workload", workload, "--trace", "1", "--out", out)
    assert traced["correct"]
    assert list(traced["metrics"]) == names("per_layer")
    trace = json.loads((tmp_path / f"trace-{workload}.json").read_text())
    assert trace["metrics"]["core.attack.calls"] >= 1.0
    assert not trace["violations"]


def test_simulated_metrics_repeat(tmp_path: pathlib.Path) -> None:
    for seed in ("0", "1", "0", "1"):
        run("--workload", "lossy_fullkey", "--seed", seed,
            "--out", str(tmp_path))
    runs = json.loads((tmp_path / "runs.json").read_text())["runs"]

    def exact(record: Dict[str, Any]) -> Any:
        return ([record["metrics"][name] for name in EXACT],
                [attack["encryptions"] for attack in record["attacks"]])

    assert exact(runs[0]) == exact(runs[2])
    assert exact(runs[1]) == exact(runs[3])
    assert exact(runs[0]) != exact(runs[1])


def test_tracer_installs_and_removes_every_wrapper() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import tracer

    boundaries = sum(len(names) for _, _, names in tracer.BOUNDARIES)
    spans = tracer.Tracer()
    assert tracer.installed_wrappers() == []
    spans.install()
    try:
        assert len(tracer.installed_wrappers()) == boundaries
    finally:
        spans.uninstall()
    assert tracer.installed_wrappers() == []


def test_compare_labels() -> None:
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert judge(steady, [v * 1.2 for v in steady], "lower",
                 0.1)["label"] == "worse"
    assert judge(steady, [v * 1.05 for v in steady], "lower",
                 0.1)["label"] == "ok"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert judge(noisy, noisy, "lower", 0.1)["label"] == "unresolved"
    faster = judge(steady, [v * 0.8 for v in steady], "lower", 0.1)
    assert faster["label"] == "ok" and faster["gain"]

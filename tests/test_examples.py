"""Smoke tests: the fast example scripts must run end-to-end.

Each example asserts its own correctness internally (recovered keys,
taxonomy agreement, ...), so executing ``main()`` doubles as an
integration test.  Only the quick examples run here; the sweep-style
ones are exercised through their harnesses in the benchmark suite.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "full_key_recovery.py",
    "present_vs_gift.py",
    "countermeasure_demo.py",
    "soc_timing_study.py",
    "gift128_attack.py",
    "figure3.py",
    "cache_geometry_study.py",
]


def _run_example(name: str) -> None:
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(
        f"example_{name.removesuffix('.py')}", path
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name, capsys, tmp_path, monkeypatch):
    # Keep the engine's result cache and artifacts out of the tree.
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    _run_example(name)
    out = capsys.readouterr().out
    assert out.strip(), f"{name} produced no output"


def test_quickstart_reports_a_match(capsys):
    _run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "exact match       : True" in out


def test_every_example_has_a_docstring_and_main():
    for path in sorted(EXAMPLES_DIR.glob("*.py")):
        source = path.read_text()
        assert source.lstrip().startswith(('#!/usr/bin/env python3', '"""')), \
            f"{path.name} lacks a shebang/docstring header"
        assert "def main()" in source, f"{path.name} lacks main()"
        assert '__name__ == "__main__"' in source, \
            f"{path.name} lacks a __main__ guard"

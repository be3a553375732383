"""The experiment engine driver.

:func:`run_experiment` is the one entry point every layer above uses —
the CLI's ``python -m repro run``, the benchmark harness, the examples
and the tests.  It resolves the experiment from the registry, consults
the content-addressed result cache, fans the Monte-Carlo trials out
over worker processes, and emits one schema-validated JSON record.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from . import artifact
from .cache import ResultCache, cache_key, code_fingerprint
from .executor import run_trials
from .params import listify
from .registry import Experiment, get
from .telemetry import ProgressHook

#: Bumped when the record layout changes incompatibly.
ENGINE_VERSION = 1


def run_experiment(name: str,
                   overrides: Optional[Mapping[str, Any]] = None,
                   *,
                   workers: int = 1,
                   use_cache: bool = True,
                   cache_root: Optional[Path] = None,
                   artifact_dir: Optional[Path] = None,
                   progress: Optional[ProgressHook] = None
                   ) -> Dict[str, Any]:
    """Run (or recall) one registered experiment and return its record.

    Parameters
    ----------
    name:
        Registry name, DESIGN.md ID (``"E2"``), or alias.
    overrides:
        Parameter overrides, validated against the experiment's spec.
    workers:
        Worker processes for the trial fan-out.  Results are
        bit-identical at any worker count (per-trial seeds depend only
        on experiment/params/cell/trial-index).
    use_cache:
        Consult/populate the content-addressed result cache.
    cache_root:
        Cache directory override (defaults to
        ``benchmarks/results/cache`` or ``$REPRO_RESULTS_DIR/cache``).
    artifact_dir:
        When given, the record is also written to
        ``<artifact_dir>/<experiment>.json``.
    progress:
        Optional per-trial progress hook (see ``repro.engine.telemetry``).
    """
    experiment = get(name)
    params = experiment.spec.resolve(overrides)
    fingerprint = code_fingerprint()
    key = cache_key(experiment.name, params, fingerprint)
    cache = ResultCache(cache_root) if use_cache else None

    if cache is not None:
        cached = cache.lookup(experiment.name, key)
        if cached is not None:
            cached["telemetry"] = dict(cached["telemetry"])
            cached["telemetry"]["cache"] = "hit"
            cached["telemetry"]["workers"] = workers
            artifact.validate_record(cached)
            if artifact_dir is not None:
                artifact.write_artifact(cached, Path(artifact_dir))
            return cached

    started = time.monotonic()
    plan = experiment.plan(params)
    per_cell, stats = run_trials(experiment, params, plan,
                                 workers=workers, progress=progress)
    cells = [
        experiment.finalize(params, dict(cell_plan.cell), trials)
        for cell_plan, trials in zip(plan, per_cell)
    ]
    summary = (experiment.summarize(params, cells)
               if experiment.summarize is not None else {})
    wall = time.monotonic() - started

    record: Dict[str, Any] = {
        "schema": artifact.SCHEMA_ID,
        "experiment": experiment.name,
        "experiment_id": experiment.experiment_id,
        "title": experiment.title,
        "params": listify(dict(params)),
        "cells": listify(cells),
        "summary": listify(summary),
        "telemetry": {
            "engine_version": ENGINE_VERSION,
            "workers": stats.workers,
            "trials_total": stats.trials,
            "wall_time_s": round(wall, 6),
            "trials_per_s": round(stats.trials / wall, 3) if wall > 0
            else 0.0,
            "cache": "miss" if use_cache else "disabled",
            "cache_key": key,
            "code_fingerprint": fingerprint,
        },
    }
    artifact.validate_record(record)
    if cache is not None:
        cache.store(experiment.name, key, record)
    if artifact_dir is not None:
        artifact.write_artifact(record, Path(artifact_dir))
    return record


def render_record(record: Mapping[str, Any]) -> str:
    """ASCII rendering of a record via its experiment's render hook."""
    experiment: Experiment = get(record["experiment"])
    if experiment.render is None:
        import json

        return json.dumps(record, indent=2, sort_keys=True)
    return experiment.render(dict(record))

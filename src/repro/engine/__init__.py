"""The unified experiment engine.

One declarative registry of every paper artefact and ablation (E1–E20),
one parallel Monte-Carlo executor with worker-count-independent seeding,
one content-addressed result cache, one JSON artifact schema — shared by
the CLI (``python -m repro run``), the benchmark harness, and the
examples.  See ``docs/experiment_engine.md``.

This ``__init__`` deliberately avoids importing the built-in experiment
definitions (they pull in ``repro.core``); the registry loads them
lazily on first lookup, which keeps the engine package importable from
anywhere without cycles.  Seed derivation lives at the package top
level (:mod:`repro.seeding`) and is re-exported here for the engine's
callers; the old ``repro.engine.seeding`` alias module is gone (and
banned by the layering checker).
"""

from .artifact import (
    SCHEMA_ID,
    ArtifactSchemaError,
    trial_summary,
    validate_record,
    write_artifact,
)
from .budget import (
    FULL_EFFORT,
    QUICK_EFFORT,
    full_mode,
    simulated_effort_budget,
)
from .cache import ResultCache, cache_key, code_fingerprint, results_dir
from .engine import ENGINE_VERSION, render_record, run_experiment
from .executor import ExecutionStats, run_trials
from .params import Param, ParamSpec, canonical_params, spec
from .registry import (
    CellPlan,
    Experiment,
    experiment_ids,
    get,
    names,
    register,
)
from ..seeding import (
    canonical,
    derive_key,
    derive_rng,
    derive_seed,
    trial_seed,
)
from .telemetry import ProgressEvent, ProgressPrinter

__all__ = [
    "SCHEMA_ID",
    "ArtifactSchemaError",
    "trial_summary",
    "validate_record",
    "write_artifact",
    "FULL_EFFORT",
    "QUICK_EFFORT",
    "full_mode",
    "simulated_effort_budget",
    "ResultCache",
    "cache_key",
    "code_fingerprint",
    "results_dir",
    "ENGINE_VERSION",
    "render_record",
    "run_experiment",
    "ExecutionStats",
    "run_trials",
    "Param",
    "ParamSpec",
    "canonical_params",
    "spec",
    "CellPlan",
    "Experiment",
    "experiment_ids",
    "get",
    "names",
    "register",
    "canonical",
    "derive_key",
    "derive_rng",
    "derive_seed",
    "trial_seed",
    "ProgressEvent",
    "ProgressPrinter",
]

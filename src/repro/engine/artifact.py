"""Structured JSON result artifacts and their schema.

Every engine run emits one schema-validated record.  The validator is
deliberately dependency-free (no ``jsonschema`` in the container); the
schema below is the single source of truth for both validation and the
documentation in ``docs/experiment_engine.md``.

Record shape (``repro.engine/result/v1``)::

    {
      "schema": "repro.engine/result/v1",
      "experiment": "table1",         # primary registry name
      "experiment_id": "E2",          # DESIGN.md ID
      "title": "...",
      "params": { ... },              # fully-resolved, canonical values
      "cells": [
        {"cell": {...},               # the cell's sweep coordinates
         "trials": [...],             # per-trial results (may be empty)
         "summary": {"mean":..., "min":..., "max":..., "n":...} | null,
         "confidence":                # optional: voting-recovery sweeps
             {"mean":..., "min":..., "n":...} | null,
         ...experiment-specific fields...}
      ],
      "summary": { ... },             # experiment-level summary
      "telemetry": {
        "engine_version": 1, "workers": N,
        "trials_total": T, "wall_time_s": W, "trials_per_s": R,
        "cache": "hit" | "miss" | "disabled",
        "cache_key": "...", "code_fingerprint": "..."
      }
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

#: Schema identifier embedded in every record.
SCHEMA_ID = "repro.engine/result/v1"

#: Telemetry ``cache`` states.
CACHE_STATES = ("hit", "miss", "disabled")

class ArtifactSchemaError(ValueError):
    """A record does not conform to :data:`SCHEMA_ID`."""


def _require(record: Mapping[str, Any], field: str, kinds,
             where: str) -> Any:
    if field not in record:
        raise ArtifactSchemaError(f"{where}: missing field {field!r}")
    value = record[field]
    if not isinstance(value, kinds):
        raise ArtifactSchemaError(
            f"{where}: field {field!r} has type {type(value).__name__}"
        )
    return value


def validate_record(record: Mapping[str, Any]) -> None:
    """Validate one result record; raises :class:`ArtifactSchemaError`."""
    if not isinstance(record, Mapping):
        raise ArtifactSchemaError("record must be an object")
    schema = _require(record, "schema", str, "record")
    if schema != SCHEMA_ID:
        raise ArtifactSchemaError(
            f"record: schema {schema!r} != {SCHEMA_ID!r}"
        )
    _require(record, "experiment", str, "record")
    _require(record, "experiment_id", str, "record")
    _require(record, "title", str, "record")
    _require(record, "params", Mapping, "record")
    cells = _require(record, "cells", list, "record")
    for index, cell in enumerate(cells):
        where = f"cells[{index}]"
        if not isinstance(cell, Mapping):
            raise ArtifactSchemaError(f"{where}: must be an object")
        _require(cell, "cell", Mapping, where)
        _require(cell, "trials", list, where)
        if "summary" not in cell:
            raise ArtifactSchemaError(f"{where}: missing field 'summary'")
        if cell["summary"] is not None:
            summary = cell["summary"]
            if not isinstance(summary, Mapping):
                raise ArtifactSchemaError(f"{where}.summary: must be an "
                                          f"object or null")
            for field in ("mean", "min", "max", "n"):
                _require(summary, field, (int, float), f"{where}.summary")
        if "confidence" in cell and cell["confidence"] is not None:
            confidence = cell["confidence"]
            if not isinstance(confidence, Mapping):
                raise ArtifactSchemaError(f"{where}.confidence: must be "
                                          f"an object or null")
            for field in ("mean", "min", "n"):
                _require(confidence, field, (int, float),
                         f"{where}.confidence")
    _require(record, "summary", Mapping, "record")
    telemetry = _require(record, "telemetry", Mapping, "record")
    _require(telemetry, "engine_version", int, "telemetry")
    _require(telemetry, "workers", int, "telemetry")
    _require(telemetry, "trials_total", int, "telemetry")
    _require(telemetry, "wall_time_s", (int, float), "telemetry")
    _require(telemetry, "trials_per_s", (int, float), "telemetry")
    cache_state = _require(telemetry, "cache", str, "telemetry")
    if cache_state not in CACHE_STATES:
        raise ArtifactSchemaError(
            f"telemetry: cache {cache_state!r} not in {CACHE_STATES}"
        )
    _require(telemetry, "cache_key", str, "telemetry")
    _require(telemetry, "code_fingerprint", str, "telemetry")


def trial_summary(samples: List[float]) -> Optional[Dict[str, float]]:
    """The per-cell ``summary`` object (``None`` for sample-free cells)."""
    numeric = [float(s) for s in samples]
    if not numeric:
        return None
    return {
        "mean": sum(numeric) / len(numeric),
        "min": min(numeric),
        "max": max(numeric),
        "n": len(numeric),
    }


def outcome_tally(trials: List[Mapping[str, Any]]) -> Dict[str, Any]:
    """The per-cell fields every outcome-classified sweep shares: the
    ``summary`` of recovered trials' encryptions, the ``success_rate``
    and the ``outcomes`` histogram.  Trials are
    :meth:`~repro.core.outcome.TrialOutcome.trial` records."""
    successes = [t for t in trials if t["recovered"]]
    outcomes: Dict[str, int] = {}
    for trial in trials:
        outcomes[trial["outcome"]] = outcomes.get(trial["outcome"], 0) + 1
    return {
        "summary": trial_summary(
            [float(t["encryptions"]) for t in successes]
        ),
        "success_rate": len(successes) / len(trials) if trials else 0.0,
        "outcomes": outcomes,
    }


def key_recovery_finalize(params: Mapping[str, Any], cell: Dict[str, Any],
                          trials: List[Mapping[str, Any]]
                          ) -> Dict[str, Any]:
    """The cell of a full-key sweep (E4, E11, E16): the outcome tally
    plus whether every trial recovered its planted key."""
    return {"cell": cell, "trials": trials, **outcome_tally(trials),
            "all_recovered": all(t["recovered"] for t in trials)}


def confidence_summary(confidences: List[float]
                       ) -> Optional[Dict[str, float]]:
    """Per-cell ``confidence`` telemetry for voting-recovery sweeps.

    Aggregates the per-segment acceptance confidences the lossy-channel
    experiments report (``None`` when no segment-level confidence was
    collected, e.g. all trials dropped out before accepting anything).
    """
    numeric = [float(c) for c in confidences]
    if not numeric:
        return None
    return {
        "mean": sum(numeric) / len(numeric),
        "min": min(numeric),
        "n": len(numeric),
    }


def write_artifact(record: Mapping[str, Any],
                   directory: Path) -> Path:
    """Write the canonical ``<experiment>.json`` artifact for a run."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{record['experiment']}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path

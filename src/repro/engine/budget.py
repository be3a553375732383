"""Monte-Carlo effort budgets and the ``REPRO_FULL`` switch.

The quick harness simulates every cell whose *expected* effort fits the
budget and fills the rest from the validated analytic model (E7);
``REPRO_FULL=1`` raises the budget past the paper's 1M-encryption
drop-out threshold so everything is brute-forced.  The outcome sweeps
(E14, E15, E20) size their whole-attack budgets with
:func:`effort_budget`.

This module is importable from anywhere (its repro dependencies are
imported lazily), replacing the old ``from conftest import
simulated_effort_budget`` cross-import that only worked when pytest's
rootdir happened to be ``benchmarks/``.
"""

from __future__ import annotations

import os
from math import inf
from typing import Any, Mapping

#: Per-cell Monte-Carlo budget in quick (default) mode.
QUICK_EFFORT = 20_000.0
#: Per-cell budget under ``REPRO_FULL=1`` (above the 1M drop-out rule,
#: so no finite cell is left to the analytic model).
FULL_EFFORT = 1_500_000.0


def full_mode() -> bool:
    """Whether the expensive full-fidelity sweeps were requested."""
    return os.environ.get("REPRO_FULL", "") not in ("", "0")


def simulated_effort_budget() -> float:
    """Per-cell Monte-Carlo budget honouring ``REPRO_FULL``."""
    return FULL_EFFORT if full_mode() else QUICK_EFFORT


def effort_budget(params: Mapping[str, Any]) -> int:
    """``budget_factor`` x the analytic lossless GIFT-64 effort.

    Reads ``budget_factor`` and ``line_words`` from the experiment
    params, plus ``probing_round`` (default 1) and ``scope``
    (``"first_round"`` = one attacked round, default ``"full_key"`` =
    every round the master key needs).  A geometry the model predicts
    no progress for raises :class:`ValueError`.
    """
    from ..analysis.theory import (
        expected_first_round_effort,
        expected_full_key_effort,
    )
    from ..cache.geometry import CacheGeometry
    from ..targets.gift import gift64

    geometry = CacheGeometry(line_words=params["line_words"])
    probing_round = params.get("probing_round", 1)
    if params.get("scope", "full_key") == "first_round":
        effort = expected_first_round_effort(gift64, geometry, probing_round)
    else:
        effort = expected_full_key_effort(gift64, geometry, probing_round)
    if effort == inf:
        raise ValueError(
            f"{geometry} leaves one observation class per S-box access: "
            f"the attack makes no progress, so no budget bounds it"
        )
    return int(params["budget_factor"] * effort)

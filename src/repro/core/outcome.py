"""The one attack-trial runner: every way a seeded attack can end.

:func:`run_attack` is how the experiment engine and the
countermeasure harness run an attack.  It maps each typed
:class:`~repro.core.errors.AttackError` onto a label of the closed
:data:`OUTCOMES` set, so a failure becomes a trial outcome (the paper's
">1M" drop-out cells) instead of an exception that aborts a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..staticcheck.secrets import declassify
from .errors import (
    BudgetExceeded,
    InconsistentObservation,
    KeyVerificationFailed,
    LowConfidenceError,
)

#: Each typed attack failure and the outcome label it maps onto.
FAILURE_OUTCOMES = {
    LowConfidenceError: "low_confidence",
    BudgetExceeded: "budget_exceeded",
    InconsistentObservation: "inconsistent",
    KeyVerificationFailed: "verify_failed",
}

#: The closed set of ways one seeded attack trial can end.
OUTCOMES = ("recovered", "wrong_key", *FAILURE_OUTCOMES.values())


@dataclass(frozen=True)
class TrialOutcome:
    """How one attack trial ended: an :data:`OUTCOMES` label, the
    encryptions it spent, and the attack result (on success) or the
    typed error (on failure)."""

    outcome: str
    encryptions: int
    result: Any = None
    error: Optional[Exception] = None

    @property
    def recovered(self) -> bool:
        """Whether the planted key (or round-1 bits) came back."""
        return self.outcome == "recovered"

    def trial(self, **extra: Any) -> Dict[str, Any]:
        """The JSON trial record, with experiment-specific ``extra``
        keys appended."""
        return {"outcome": self.outcome, "recovered": self.recovered,
                "encryptions": self.encryptions, **extra}


def run_attack(attack: Any, scope: str, planted: Optional[int] = None
               ) -> TrialOutcome:
    """Run ``attack`` at ``scope`` and classify how it ended.

    ``scope`` is ``"first_round"`` (:meth:`attack_first_round`; success
    is reaching the end of round 1) or ``"full_key"``
    (:meth:`recover_master_key`, checked against ``planted``).  Typed
    attack failures map onto :data:`OUTCOMES`; anything else propagates.
    A failure's encryptions are the ones the error carries, or else the
    ones the attack spent before it was raised.
    """
    try:
        if scope == "first_round":
            outcome = attack.attack_first_round()
            return TrialOutcome("recovered", outcome.encryptions, outcome)
        result = attack.recover_master_key()
    except tuple(FAILURE_OUTCOMES) as exc:
        return TrialOutcome(
            FAILURE_OUTCOMES[type(exc)],
            getattr(exc, "encryptions", attack.total_encryptions),
            error=exc,
        )
    recovered = declassify(result.master_key == planted)
    return TrialOutcome("recovered" if recovered else "wrong_key",
                        result.total_encryptions, result)

"""Exception types raised by the GRINCH attack machinery."""

from __future__ import annotations


class AttackError(Exception):
    """Base class for attack failures."""


class BudgetExceeded(AttackError):
    """The configured encryption budget ran out before convergence.

    Carries how many encryptions were spent so experiment harnesses can
    report drop-outs the way the paper does (">1M" cells in Table I).
    """

    def __init__(self, message: str, encryptions: int) -> None:
        super().__init__(message)
        self.encryptions = encryptions


class InconsistentObservation(AttackError):
    """Every hypothesis was contradicted by the cache observations, or
    the observations left a round key with several candidates.

    Seen when the victim is protected (countermeasures), when the
    attack is run against an implementation it does not model, or when
    the cache lines are too wide to separate the candidates.
    """


class KeyVerificationFailed(AttackError):
    """The assembled master key failed the known-pair verification."""


class LowConfidenceError(AttackError):
    """Voting recovery could not reach the confidence threshold.

    Raised instead of returning a probably-wrong key when a segment's
    vote counts never separate within the retry and encryption budgets
    (e.g. under extreme channel loss).  Carries the best confidence
    reached so experiment harnesses can report *how* close the segment
    came, and ``blocked_by``: which acceptance guard of
    :attr:`~repro.core.voting.VotingEliminator.decided` held the leader
    back at give-up time (``"min_observations"``,
    ``"leader_not_viable"``, ``"separation"`` or ``"confidence"``) —
    the posterior can pass while another guard still blocks.
    """

    def __init__(self, message: str, encryptions: int,
                 best_confidence: float, blocked_by: str) -> None:
        super().__init__(message)
        self.encryptions = encryptions
        self.best_confidence = best_confidence
        self.blocked_by = blocked_by

"""GRINCH: the paper's core contribution — an access-driven cache attack
on table-based GIFT implementations.

Typical use::

    from repro.core import AttackConfig, GrinchAttack
    from repro.targets.gift import TracedGift64

    victim = TracedGift64(master_key=secret)
    result = GrinchAttack(victim, AttackConfig(seed=1)).recover_master_key()
    assert result.master_key == secret
"""

from ..channel import (
    LOSSLESS,
    NO_JITTER,
    NO_NOISE,
    FlushFlush,
    FlushReload,
    LossyChannel,
    NoiseModel,
    ObservationChannel,
    PrimeProbe,
    ProbePrimitive,
    ProbeJitter,
    SboxMonitor,
    make_primitive,
)
from .attack import FULL_KEY_ROUNDS, GrinchAttack, recover_full_key
from .config import PROBE_STRATEGIES, RECOVERY_MODES, AttackConfig
from .crafting import PlaintextCrafter, build_target_round_input
from .crosscore import CrossCoreRunner, make_cross_core_runner
from .eliminate import CandidateEliminator
from .errors import (
    AttackError,
    BudgetExceeded,
    InconsistentObservation,
    KeyVerificationFailed,
    LowConfidenceError,
)
from .recover import (
    KeyBitPair,
    expected_index,
    indices_consistent_with_prediction,
    key_pairs_from_line,
)
from .results import (
    AttackResult,
    FirstRoundResult,
    RoundAttackOutcome,
    RoundKeyEstimate,
    SegmentOutcome,
)
from .target_bits import SourceBit, TargetSpec, set_target_bits
from .voting import VotingEliminator, VotingPolicy

__all__ = [
    "FULL_KEY_ROUNDS",
    "GrinchAttack",
    "recover_full_key",
    "PROBE_STRATEGIES",
    "RECOVERY_MODES",
    "AttackConfig",
    "PlaintextCrafter",
    "build_target_round_input",
    "CrossCoreRunner",
    "make_cross_core_runner",
    "CandidateEliminator",
    "VotingEliminator",
    "VotingPolicy",
    "AttackError",
    "BudgetExceeded",
    "InconsistentObservation",
    "KeyVerificationFailed",
    "LowConfidenceError",
    "SboxMonitor",
    "LOSSLESS",
    "NO_JITTER",
    "NO_NOISE",
    "LossyChannel",
    "NoiseModel",
    "ProbeJitter",
    "FlushFlush",
    "FlushReload",
    "PrimeProbe",
    "ObservationChannel",
    "ProbePrimitive",
    "make_primitive",
    "KeyBitPair",
    "expected_index",
    "indices_consistent_with_prediction",
    "key_pairs_from_line",
    "AttackResult",
    "FirstRoundResult",
    "RoundAttackOutcome",
    "RoundKeyEstimate",
    "SegmentOutcome",
    "SourceBit",
    "TargetSpec",
    "set_target_bits",
]

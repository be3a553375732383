"""Non-access-driven attack variants from the paper's taxonomy
(Section I): trace-driven and time-driven realisations of GRINCH."""

from ..channel.observer import (
    WindowObservation,
    observe_window,
)
from .time_driven import (
    CandidateScore,
    TimeDrivenAttack,
    TimingSegmentRecovery,
)
from .trace_driven import TraceDrivenAttack, TraceSegmentRecovery

__all__ = [
    "WindowObservation",
    "observe_window",
    "CandidateScore",
    "TimeDrivenAttack",
    "TimingSegmentRecovery",
    "TraceDrivenAttack",
    "TraceSegmentRecovery",
]

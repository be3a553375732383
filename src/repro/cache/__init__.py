"""Set-associative cache simulator: the shared-L1 substrate of GRINCH."""

from .geometry import (
    GEOMETRY_PRESETS,
    PAPER_DEFAULT_GEOMETRY,
    WORD_BYTES,
    CacheGeometry,
    geometry_preset,
)
from .multilevel import (
    HierarchyStats,
    InclusionPolicy,
    MemoryLevel,
    TwoLevelHierarchy,
)
from .policies import (
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from .setassoc import CacheStats, SetAssociativeCache

__all__ = [
    "GEOMETRY_PRESETS",
    "PAPER_DEFAULT_GEOMETRY",
    "WORD_BYTES",
    "CacheGeometry",
    "geometry_preset",
    "HierarchyStats",
    "InclusionPolicy",
    "MemoryLevel",
    "TwoLevelHierarchy",
    "FifoPolicy",
    "LruPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "make_policy",
    "CacheStats",
    "SetAssociativeCache",
]

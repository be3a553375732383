"""Cross-core attack runner: GRINCH through a shared L2.

Realises the paper's future-work question ("further explore the effect
of the memory hierarchy on the effectiveness of the attack"): the
victim runs on core 0 behind a private L1, the attacker on core 1 can
only sense the *shared L2* (its reloads hit there, never in the
victim's L1) but wields a ``clflush`` that purges the whole hierarchy.

All the cross-core behaviour lives in
:class:`~repro.channel.transport.SharedL2Transport`:
:func:`make_cross_core_runner` returns a plain
:class:`~repro.channel.ObservationChannel` over it, on which
:class:`~repro.core.attack.GrinchAttack` runs unchanged — only the
observability differs:

* **inclusive L2**: every victim miss fills L2 too, so after a flush
  the first touch of each line is visible — the attack goes through.
* **exclusive L2**: memory fills go to the victim's L1 only; a table
  that fits in L1 never appears in L2, and the attacker sees nothing —
  the hierarchy itself acts as a countermeasure.
"""

from __future__ import annotations

from typing import Any, Optional

from ..cache.geometry import CacheGeometry
from ..cache.multilevel import InclusionPolicy, TwoLevelHierarchy
from ..channel.observer import ObservationChannel
from ..channel.transport import ATTACKER_CORE, VICTIM_CORE, SharedL2Transport
from ..targets.protocol import TracedVictim
from .config import AttackConfig

__all__ = [
    "ATTACKER_CORE",
    "VICTIM_CORE",
    "make_cross_core_runner",
]


def make_cross_core_runner(victim: TracedVictim, config: AttackConfig,
                           inclusion: InclusionPolicy,
                           policy: str = "lru",
                           defender: Optional[Any] = None
                           ) -> ObservationChannel:
    """Build a runner over a default two-core hierarchy.

    The hierarchy's line size follows the attack geometry so Table-I
    style sweeps stay meaningful cross-core.  ``policy`` selects the
    replacement policy of both levels (``"random"`` gives the
    ARMageddon-style mobile-SoC substrate, with independently derived
    per-set streams); ``defender`` optionally taps the transport.  The
    channel rejects a Prime+Probe config: a cross-core attacker is
    clflush-based.
    """
    line_words = config.geometry.line_words
    hierarchy = TwoLevelHierarchy(
        cores=2,
        l1_geometry=CacheGeometry(total_lines=64, ways=4,
                                  line_words=line_words),
        l2_geometry=CacheGeometry(total_lines=1024, ways=16,
                                  line_words=line_words),
        inclusion=inclusion,
        policy=policy,
    )
    return ObservationChannel(victim, config,
                              transport=SharedL2Transport(hierarchy),
                              rng_scope="crosscore", defender=defender)

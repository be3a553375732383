"""GRINCH reproduction: a cache attack against the GIFT lightweight cipher.

Reproduces Reinbrecht et al., *"GRINCH: A Cache Attack against GIFT
Lightweight Cipher"* (DATE 2021) as a pure-Python library:

* :mod:`repro.gift` — GIFT-64/128 (reference + traced table-based victim)
* :mod:`repro.present` — PRESENT baseline (GIFT's ancestor)
* :mod:`repro.cache` — set-associative shared-cache simulator
* :mod:`repro.soc` — single-core SoC and mesh-NoC MPSoC timing platforms
* :mod:`repro.core` — the GRINCH attack itself
* :mod:`repro.countermeasures` — the paper's two protections
* :mod:`repro.variants` — trace-/time-driven attack variants
* :mod:`repro.engine` — the experiment engine: every table, figure and
  ablation (``python -m repro run <experiment>``)
* :mod:`repro.analysis` — analytic effort model, statistics, reporting

Quickstart::

    from repro import AttackConfig, GrinchAttack, TracedGift64

    victim = TracedGift64(master_key=0x0123456789ABCDEF0123456789ABCDEF)
    result = GrinchAttack(victim, AttackConfig(seed=1)).recover_master_key()
    assert result.master_key == victim.master_key
"""

from .cache import CacheGeometry, SetAssociativeCache
from .core import (
    AttackConfig,
    AttackResult,
    GrinchAttack,
    NoiseModel,
    recover_full_key,
)
from .targets.gift import Gift64, Gift128, TracedGift64, TracedGift128
from .targets.layout import TableLayout
from .present import Present
from .soc import MPSoC, ClockDomain, SingleCoreSoC
from .variants import TimeDrivenAttack, TraceDrivenAttack

__version__ = "1.0.0"

__all__ = [
    "CacheGeometry",
    "SetAssociativeCache",
    "AttackConfig",
    "AttackResult",
    "GrinchAttack",
    "NoiseModel",
    "recover_full_key",
    "Gift64",
    "Gift128",
    "TableLayout",
    "TracedGift64",
    "TracedGift128",
    "Present",
    "MPSoC",
    "ClockDomain",
    "SingleCoreSoC",
    "TimeDrivenAttack",
    "TraceDrivenAttack",
    "__version__",
]

"""The target layer: pluggable cipher definitions for the GRINCH pipeline.

A :class:`CipherTarget` captures everything the attack pipeline needs
to know about one table-based cipher — declared table layouts, round
structure, the traced-victim constructor, the crafted-input inversion,
and the round-key-to-master-key algebra.  The pipeline layers above
(``repro.core``, ``repro.channel``, ``repro.engine``) consume targets
through this package and never import a cipher package directly; the
layering checker enforces both directions (ciphers are only importable
from here, and this package may not import the pipeline).

Built-in targets: ``gift64``, ``gift128`` (the paper's victims),
``present80`` (the protocol's proof port, experiment E16), and
``giftcofb`` (GIFT-COFB's nonce channel).  See ``docs/targets.md``.
"""

from .layout import MAX_SEGMENTS, SBOX_ENTRIES, TableLayout
from .protocol import CipherTarget, RoundKey, TracedVictim
from .registry import (
    get_target,
    register_target,
    registered_targets,
    resolve_target_for,
    target_names,
)
from .trace import EncryptionTrace, MemoryAccess, TestVector

__all__ = [
    "CipherTarget",
    "EncryptionTrace",
    "MAX_SEGMENTS",
    "MemoryAccess",
    "RoundKey",
    "SBOX_ENTRIES",
    "TableLayout",
    "TestVector",
    "TracedVictim",
    "get_target",
    "register_target",
    "registered_targets",
    "resolve_target_for",
    "target_names",
]

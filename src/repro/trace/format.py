"""The in-memory trace model: header, per-encryption records, file.

A trace is a :class:`TraceFile`: one :class:`TraceHeader` (who was
recorded, under which geometry/layout/config and seed)
followed by an ordered sequence of :class:`EncryptionRecord` — one per
encryption the victim ran, in execution order.  Three record kinds
cover every observation path of the L1–L4 stack:

``"indices"``
    The fast-path signal: the S-box indices of every visible round
    (exactly ``segments`` nibbles per round, in segment order).  The
    addresses are not stored — they are a pure function of the header's
    :class:`~repro.targets.layout.TableLayout`, so replay reconstructs
    them losslessly and the packed encoding stays tiny (two nibbles per
    byte).
``"accesses"``
    The full-path signal: the complete tagged
    :class:`~repro.targets.trace.MemoryAccess` stream of the visible
    window (S-box *and* PermBits loads), as the full path asks for it.
    ``round_index == 0`` / ``segment == -1`` mark accesses whose
    provenance the producer could not tag.
``"pair"``
    One known plaintext/ciphertext pair — the verification channel the
    attack consumes through ``known_pair``.

Records with kind ``"indices"`` or ``"accesses"`` are *observation
windows*; ``rounds_visible`` bounds the window (the recorded victim ran
``max_rounds=rounds_visible``).  Per-encryption boundaries are the
record boundaries themselves.

This module is pure data + validation; serialization lives in
:mod:`repro.trace.binio`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..cache.geometry import CacheGeometry, preset_name_of
from ..targets.layout import SBOX_ENTRIES, TableLayout
from ..targets.trace import EncryptionTrace, MemoryAccess
from .errors import TraceError

#: Format version of the encoding.
FORMAT_VERSION = 1

#: Record kinds (see module docstring).
KIND_PAIR = "pair"
KIND_ACCESSES = "accesses"
KIND_INDICES = "indices"
RECORD_KINDS = (KIND_PAIR, KIND_ACCESSES, KIND_INDICES)

#: Default table-name table of a recording.  Access records name their
#: table by index into this tuple; ``"other"`` absorbs substrate-level
#: addresses that fall outside both canonical table regions.
DEFAULT_TABLES: Tuple[str, ...] = ("sbox", "perm", "other")


@dataclass(frozen=True)
class TraceHeader:
    """Everything needed to re-create the recording context.

    The header pins the attacked target's name and shape, the cache
    geometry (plus, derived, its preset name when one matches), the
    table layout addresses the access stream is expressed against, the
    observation-relevant attack config knobs and the config's seed.
    ``meta`` is a free-form JSON-able mapping (the recording CLI stores
    the expected outcome there, which is what the corpus tests pin).

    ``scope`` is informational only: the encoder writes it and
    ``trace info`` prints it, but nothing reads it back, and replay
    derives no RNG stream from it.  (The recording CLI also stores the
    recording scope in ``meta["scope"]``.)  It stays in the header
    because removing it would change the encoded header bytes.
    """

    target: str
    width: int
    rounds: int
    seed: Optional[int] = None
    scope: str = "runner"
    probe_round_offset: int = 1
    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    layout: TableLayout = field(default_factory=TableLayout)
    probing_round: int = 1
    use_flush: bool = True
    probe_strategy: str = "flush_reload"
    tables: Tuple[str, ...] = DEFAULT_TABLES
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.target:
            raise TraceError("header needs a non-empty target name")
        if self.width < 4 or self.width % 4:
            raise TraceError(
                f"width must be a positive multiple of 4, got {self.width}"
            )
        if self.rounds < 1:
            raise TraceError(f"rounds must be >= 1, got {self.rounds}")
        if self.probing_round < 1:
            raise TraceError(
                f"probing_round must be >= 1, got {self.probing_round}"
            )
        if self.probe_round_offset < 0:
            raise TraceError("probe_round_offset must be non-negative")
        if not self.tables or len(set(self.tables)) != len(self.tables):
            raise TraceError("tables must be non-empty and unique")

    @property
    def segments(self) -> int:
        """State segments (nibbles) of the recorded target."""
        return self.width // 4

    @property
    def geometry_preset(self) -> Optional[str]:
        """Name of the matching geometry preset, if any (so reports
        can say "paper geometry")."""
        return preset_name_of(self.geometry)

    def table_index(self, table: str) -> int:
        """Index of ``table`` in the header's table-name table."""
        try:
            return self.tables.index(table)
        except ValueError:
            raise TraceError(
                f"table {table!r} is not declared in the header "
                f"(tables: {', '.join(self.tables)})"
            ) from None

    def with_meta(self, **entries: Any) -> "TraceHeader":
        """A copy of the header with ``entries`` merged into ``meta``."""
        merged = dict(self.meta)
        merged.update(entries)
        return replace(self, meta=merged)

    @classmethod
    def for_victim(cls, target: str, victim: Any, config: Any,
                   scope: str = "runner",
                   meta: Optional[Dict[str, Any]] = None) -> "TraceHeader":
        """Build a header from a live victim + attack config.

        Duck-typed: ``victim`` needs ``width``/``rounds``/``layout``
        (the :class:`~repro.targets.protocol.TracedVictim` surface) and
        ``config`` the observation-relevant ``AttackConfig`` attributes.
        """
        return cls(
            target=target,
            width=victim.width,
            rounds=victim.rounds,
            seed=getattr(config, "seed", None),
            scope=scope,
            probe_round_offset=getattr(victim, "probe_round_offset", 1),
            geometry=config.geometry,
            layout=victim.layout,
            probing_round=getattr(config, "probing_round", 1),
            use_flush=getattr(config, "use_flush", True),
            probe_strategy=getattr(config, "probe_strategy",
                                   "flush_reload"),
            meta=dict(meta) if meta else {},
        )


@dataclass(frozen=True)
class EncryptionRecord:
    """One encryption's serialized observation (see module docstring)."""

    kind: str
    plaintext: Optional[int] = None
    ciphertext: Optional[int] = None
    rounds_visible: int = 0
    accesses: Tuple[MemoryAccess, ...] = ()
    indices: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in RECORD_KINDS:
            raise TraceError(
                f"record kind must be one of {RECORD_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.rounds_visible < 0:
            raise TraceError("rounds_visible must be non-negative")
        for value, name in ((self.plaintext, "plaintext"),
                            (self.ciphertext, "ciphertext")):
            if value is not None and value < 0:
                raise TraceError(f"{name} must be non-negative")
        if self.kind == KIND_PAIR:
            if self.plaintext is None or self.ciphertext is None:
                raise TraceError(
                    "a pair record needs both plaintext and ciphertext"
                )
            if self.accesses or self.indices:
                raise TraceError("a pair record carries no access stream")
        elif self.kind == KIND_INDICES:
            if self.accesses:
                raise TraceError(
                    "an indices record must not also carry raw accesses"
                )
            if len(self.indices) != self.rounds_visible:
                raise TraceError(
                    f"indices record claims {self.rounds_visible} visible "
                    f"rounds but stores {len(self.indices)} rows"
                )
            for row in self.indices:
                for index in row:
                    if not 0 <= index < SBOX_ENTRIES:
                        raise TraceError(
                            f"S-box index must be a 4-bit value, "
                            f"got {index}"
                        )
        else:  # KIND_ACCESSES
            if self.indices:
                raise TraceError(
                    "an accesses record must not also carry packed indices"
                )

    @property
    def is_window(self) -> bool:
        """Whether the record is an observation window (not a pair)."""
        return self.kind != KIND_PAIR

    def sbox_indices_by_round(self, segments: int) -> List[List[int]]:
        """The fast-path view: per visible round, the S-box indices in
        segment order (rows of exactly ``segments`` entries)."""
        if self.kind == KIND_INDICES:
            return [list(row) for row in self.indices]
        if self.kind != KIND_ACCESSES:
            raise TraceError("a pair record has no access stream")
        rows: List[List[int]] = [[] for _ in range(self.rounds_visible)]
        for access in self.accesses:
            if access.table != "sbox":
                continue
            if not 1 <= access.round_index <= self.rounds_visible:
                continue
            rows[access.round_index - 1].append(access.index)
        for round_index, row in enumerate(rows, start=1):
            if len(row) != segments:
                raise TraceError(
                    f"round {round_index} has {len(row)} tagged S-box "
                    f"accesses, expected {segments}; the stream cannot "
                    f"serve the fast path (replay it through the full "
                    f"path instead)"
                )
        return rows

    def to_trace(self, header: TraceHeader) -> EncryptionTrace:
        """Materialise the record as a live :class:`EncryptionTrace`.

        Indices records reconstruct their addresses from the header's
        layout (the encoding dropped them precisely because they are
        this function of it); accesses records replay verbatim.
        """
        if self.kind == KIND_PAIR:
            raise TraceError("a pair record has no access stream")
        if self.kind == KIND_ACCESSES:
            accesses = list(self.accesses)
        else:
            layout = header.layout
            accesses = [
                MemoryAccess(
                    address=layout.sbox_address(index),
                    round_index=round_index,
                    segment=segment,
                    table="sbox",
                    index=index,
                )
                for round_index, row in enumerate(self.indices, start=1)
                for segment, index in enumerate(row)
            ]
        return EncryptionTrace(
            plaintext=self.plaintext if self.plaintext is not None else 0,
            ciphertext=(self.ciphertext
                        if self.ciphertext is not None else 0),
            accesses=accesses,
        )


@dataclass(frozen=True)
class TraceFile:
    """One header plus its ordered per-encryption records."""

    header: TraceHeader
    records: Tuple[EncryptionRecord, ...] = ()

    def __post_init__(self) -> None:
        segments = self.header.segments
        for position, record in enumerate(self.records):
            if record.kind == KIND_INDICES:
                for row in record.indices:
                    if len(row) != segments:
                        raise TraceError(
                            f"record {position}: indices rows must have "
                            f"exactly {segments} entries (the header's "
                            f"segment count), got {len(row)}"
                        )

    @property
    def windows(self) -> int:
        """Observation windows in the file (non-pair records) — one per
        encryption the recorded attack charged."""
        return sum(1 for record in self.records if record.is_window)

    @property
    def pairs(self) -> int:
        """Known plaintext/ciphertext pairs in the file."""
        return sum(1 for record in self.records if not record.is_window)


"""Replay: serve a recorded (or foreign) trace to the L1–L4 stack.

:class:`ReplayVictim` implements the duck-typed ``TracedVictim``
surface from a :class:`~repro.trace.format.TraceFile` instead of a
cipher: ``sbox_indices_by_round`` / ``sbox_index_mask`` /
``encrypt_traced`` pop the next recorded observation window and
``encrypt`` pops the next known pair.
Plugged into the unchanged observer + attack, a deterministic
recording replays bit-identically — the full-key attack re-derives the
same crafting stream from the header's seed, asks for the same
plaintexts in the same order, and receives the recorded answers, so
the whole 128-bit key falls **with no cipher in the loop**.

In ``strict`` mode (the default) any drift — a plaintext the recording
did not answer, a wrong record kind, a shorter visible window — raises
:class:`~repro.trace.errors.TraceMismatchError` immediately; running
past the end raises
:class:`~repro.trace.errors.TraceExhaustedError`.  ``strict=False``
skips plaintext comparison and tolerates interleaving drift (for
foreign traces that carry no plaintexts at all).

:class:`ReplayTransport` is the substrate-level counterpart: a
transport-shaped object over a private set-associative cache whose
:meth:`~ReplayTransport.play` feeds a record's raw address stream in
as victim traffic — the way to push *foreign* traces through an L1
probe primitive without any victim object at all.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, Optional

from ..cache.geometry import CacheGeometry
from ..cache.setassoc import SetAssociativeCache
from ..staticcheck.secrets import secret_attributes
from ..targets.lut import index_mask
from ..targets.registry import get_target
from ..targets.trace import EncryptionTrace
from .errors import TraceExhaustedError, TraceMismatchError
from .format import (
    KIND_ACCESSES,
    KIND_INDICES,
    KIND_PAIR,
    EncryptionRecord,
    TraceFile,
)

#: Kinds an observation-window request may consume.
_WINDOW_KINDS: FrozenSet[str] = frozenset({KIND_ACCESSES, KIND_INDICES})


@secret_attributes("trace")
class ReplayVictim:
    """A victim whose "encryptions" are answered from a recording.

    The attack-facing attributes (``attack_target``, ``width``,
    ``rounds``, ``layout``, ``probe_round_offset``, and the load
    addresses the target's S-box and layout imply) come from the
    trace header, so target resolution, monitor construction and the
    observer's offset arithmetic behave exactly as they did against
    the live victim.  The recorded index stream is key-dependent —
    the trace attribute is declared secret accordingly.
    """

    def __init__(self, trace: TraceFile, *, strict: bool = True) -> None:
        self.trace = trace
        self.strict = strict
        header = trace.header
        self.attack_target = header.target
        self.width = header.width
        self.rounds = header.rounds
        self.layout = header.layout
        self.sbox_load_addresses = tuple(header.layout.sbox_addresses())
        sbox = get_target(header.target).sbox
        self.perm_load_addresses = tuple(
            tuple(header.layout.perm_address(segment, sbox[index],
                                             header.segments)
                  for index in range(len(sbox)))
            for segment in range(header.segments)
        )
        self.probe_round_offset = header.probe_round_offset
        self._cursor = 0
        self.windows_served = 0
        self.pairs_served = 0

    @property
    def header(self):
        """The recording's header (config, geometry, seed scope)."""
        return self.trace.header

    @property
    def remaining(self) -> int:
        """Records not yet consumed."""
        return len(self.trace.records) - self._cursor

    # -- record stream -------------------------------------------------

    def _next(self, kinds: FrozenSet[str], what: str) -> EncryptionRecord:
        records = self.trace.records
        while self._cursor < len(records):
            record = records[self._cursor]
            self._cursor += 1
            if record.kind in kinds:
                return record
            if self.strict:
                raise TraceMismatchError(
                    f"replay drift: expected a {what} record at position "
                    f"{self._cursor - 1}, found kind {record.kind!r} "
                    f"(config or seed differs from record time?)"
                )
            # Loose mode: skip interleaved records of other kinds.
        raise TraceExhaustedError(
            f"trace exhausted after {self.windows_served} windows and "
            f"{self.pairs_served} pairs: no {what} record left "
            f"(recorded scope too small for this replay?)"
        )

    def _check_plaintext(self, record: EncryptionRecord,
                         plaintext: int) -> None:
        if not self.strict or record.plaintext is None:
            return
        if record.plaintext != plaintext:
            raise TraceMismatchError(
                f"replay drift at record {self._cursor - 1}: the attack "
                f"asked for plaintext 0x{plaintext:x} but the recording "
                f"answered 0x{record.plaintext:x} (crafting streams "
                f"diverged — replay with the header's seed and config)"
            )

    # -- TracedVictim surface ------------------------------------------

    def encrypt(self, plaintext: int) -> int:
        record = self._next(frozenset({KIND_PAIR}), "known-pair")
        self._check_plaintext(record, plaintext)
        self.pairs_served += 1
        return record.ciphertext

    def encrypt_traced(self, plaintext: int,
                       max_rounds: Optional[int] = None
                       ) -> EncryptionTrace:
        record = self._next(_WINDOW_KINDS, "observation-window")
        self._check_plaintext(record, plaintext)
        limit = self.rounds if max_rounds is None else max_rounds
        if record.rounds_visible < limit:
            raise TraceMismatchError(
                f"record {self._cursor - 1} recorded "
                f"{record.rounds_visible} visible rounds but the replay "
                f"asked for {limit}"
            )
        self.windows_served += 1
        trace = record.to_trace(self.trace.header)
        return EncryptionTrace(
            plaintext=plaintext,
            ciphertext=trace.ciphertext,
            accesses=trace.accesses_through_round(limit),
        )

    def sbox_indices_by_round(self, plaintext: int,
                              max_rounds: int) -> List[List[int]]:
        record = self._next(_WINDOW_KINDS, "observation-window")
        self._check_plaintext(record, plaintext)
        rows = record.sbox_indices_by_round(self.trace.header.segments)
        if len(rows) < max_rounds:
            raise TraceMismatchError(
                f"record {self._cursor - 1} recorded {len(rows)} visible "
                f"rounds but the replay asked for {max_rounds}"
            )
        self.windows_served += 1
        return rows[:max_rounds]

    def sbox_index_mask(self, plaintext: int, first_round: int,
                        last_round: int) -> int:
        rows = self.sbox_indices_by_round(plaintext, last_round)
        return index_mask(rows[first_round - 1:])


class ReplayTransport:
    """A transport-shaped substrate for feeding traces to a probe.

    Duck-types the L2 ``CacheTransport`` surface over its own
    set-associative cache (the single-level shape of the paper's threat
    model) and adds :meth:`play`: replay one record's raw address
    stream as victim traffic.  An L1 primitive can then ``reset`` /
    ``play`` / ``observe`` against foreign traces with no victim
    object anywhere.
    """

    supports_prime_probe = True
    supports_fast_path = True
    noise_via_victim = False
    probe_on_empty_window = False

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.cache = SetAssociativeCache(geometry)

    @classmethod
    def for_trace(cls, trace: TraceFile) -> "ReplayTransport":
        """A transport of the trace's recorded geometry."""
        return cls(trace.header.geometry)

    # -- transport surface ---------------------------------------------

    def access(self, address: int) -> bool:
        return self.cache.access(address)

    def flush_line(self, address: int) -> bool:
        return self.cache.flush_line(address)

    def victim_access(self, address: int) -> bool:
        return self.cache.access(address)

    def cold(self) -> "ReplayTransport":
        return ReplayTransport(self.geometry)

    def check_geometry(self, geometry: Any) -> None:
        if self.line_bytes != geometry.line_bytes:
            raise ValueError(
                "hierarchy line size must match the attack geometry"
            )

    @property
    def line_bytes(self) -> int:
        return self.geometry.line_bytes

    # -- trace feeding -------------------------------------------------

    def play(self, record: EncryptionRecord,
             header: Optional[Any] = None,
             through_round: Optional[int] = None) -> int:
        """Feed one record's address stream in as victim traffic.

        ``header`` is required for ``indices`` records (their addresses
        are reconstructed from the header's layout).  ``through_round``
        truncates the stream after that round (untagged accesses, round
        0, always play).  Returns the number of accesses played.
        """
        if record.kind == KIND_PAIR:
            return 0
        if header is None and record.kind == KIND_INDICES:
            raise TraceMismatchError(
                "playing an indices record needs the trace header "
                "(addresses are a function of its layout)"
            )
        accesses = (record.accesses if record.kind == KIND_ACCESSES
                    else tuple(record.to_trace(header).accesses))
        played = 0
        for access in accesses:
            if (through_round is not None
                    and access.round_index > through_round):
                continue
            self.victim_access(access.address)
            played += 1
        return played

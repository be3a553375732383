"""Replay: serve a recorded trace to the L1–L4 stack.

:class:`ReplayVictim` implements the duck-typed ``TracedVictim``
surface from a :class:`~repro.trace.format.TraceFile` instead of a
cipher: ``sbox_indices_by_round`` / ``sbox_index_mask`` /
``load_addresses_by_round`` / ``encrypt_traced`` pop the next recorded
observation window and
``encrypt`` pops the next known pair.
Plugged into the unchanged observer + attack, a deterministic
recording replays bit-identically — the full-key attack re-derives the
same crafting stream from the header's seed, asks for the same
plaintexts in the same order, and receives the recorded answers, so
the whole 128-bit key falls **with no cipher in the loop**.

Any drift — a plaintext the recording did not answer, a wrong record
kind, a shorter visible window — raises
:class:`~repro.trace.errors.TraceMismatchError` immediately; running
past the end raises
:class:`~repro.trace.errors.TraceExhaustedError`.

:func:`play` is the substrate-level counterpart: it feeds one record's
address stream into any transport's ``victim_loads`` (a
``SingleLevelTransport`` of the header's geometry, say) — the way to
push a recording through an L1 probe primitive without any victim
object at all.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, Optional, Tuple

from ..staticcheck.secrets import secret_attributes
from ..targets.lut import index_mask
from ..targets.registry import get_target, target_names
from ..targets.trace import EncryptionTrace
from .errors import TraceError, TraceExhaustedError, TraceMismatchError
from .format import (
    KIND_ACCESSES,
    KIND_INDICES,
    KIND_PAIR,
    EncryptionRecord,
    TraceFile,
    TraceHeader,
)

#: Kinds an observation-window request may consume.
_WINDOW_KINDS: FrozenSet[str] = frozenset({KIND_ACCESSES, KIND_INDICES})


def header_load_addresses(header: TraceHeader
                          ) -> Tuple[Tuple[int, ...],
                                     Tuple[Tuple[int, ...], ...]]:
    """The S-box and PermBits load addresses a header implies.

    Derived from the header's target S-box and layout, in the shape of
    a victim's ``sbox_load_addresses`` (index order) and
    ``perm_load_addresses`` (segment then index order).  Replay serves
    exactly these; recording refuses a victim that loads elsewhere.
    Raises :class:`~repro.trace.errors.TraceError` when the header
    names no registered target.
    """
    layout = header.layout
    try:
        sbox = get_target(header.target).sbox
    except KeyError:
        raise TraceError(
            f"cannot derive the trace's load addresses: target "
            f"{header.target!r} is not registered (registered: "
            f"{', '.join(target_names())})"
        ) from None
    return (
        tuple(layout.sbox_addresses()),
        tuple(
            tuple(layout.perm_address(segment, sbox[index],
                                      header.segments)
                  for index in range(len(sbox)))
            for segment in range(header.segments)
        ),
    )


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

    def __init__(self, trace: TraceFile) -> None:
        self.trace = trace
        header = trace.header
        self.attack_target = header.target
        self.width = header.width
        self.rounds = header.rounds
        self.layout = header.layout
        self.sbox_load_addresses, self.perm_load_addresses = \
            header_load_addresses(header)
        self.probe_round_offset = header.probe_round_offset
        self._cursor = 0
        self.windows_served = 0
        self.pairs_served = 0

    @property
    def header(self):
        """The recording's header (config, geometry, seed)."""
        return self.trace.header

    @property
    def remaining(self) -> int:
        """Records not yet consumed."""
        return len(self.trace.records) - self._cursor

    # -- record stream -------------------------------------------------

    def _next(self, kinds: FrozenSet[str], what: str) -> EncryptionRecord:
        records = self.trace.records
        if self._cursor >= len(records):
            raise TraceExhaustedError(
                f"trace exhausted after {self.windows_served} windows and "
                f"{self.pairs_served} pairs: no {what} record left "
                f"(recorded scope too small for this replay?)"
            )
        record = records[self._cursor]
        self._cursor += 1
        if record.kind in kinds:
            return record
        raise TraceMismatchError(
            f"replay drift: expected a {what} record at position "
            f"{self._cursor - 1}, found kind {record.kind!r} "
            f"(config or seed differs from record time?)"
        )

    def _check_plaintext(self, record: EncryptionRecord,
                         plaintext: int) -> None:
        if record.plaintext is None:
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

    def load_addresses_by_round(self, plaintext: int,
                                max_rounds: int) -> List[List[int]]:
        return self.encrypt_traced(plaintext, max_rounds).address_runs(
            max_rounds)

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


def play(transport: Any, record: EncryptionRecord,
         header: Optional[TraceHeader] = None,
         through_round: Optional[int] = None) -> int:
    """Feed one record's address stream into ``transport`` as victim
    traffic.

    ``transport`` is anything with a ``victim_loads(addresses)`` — an L2
    transport such as ``SingleLevelTransport(trace.header.geometry)``.
    ``header`` is required for ``indices`` records (their addresses
    are reconstructed from the header's layout).  ``through_round``
    truncates the stream after that round (untagged accesses, round 0,
    always play).  Returns the number of accesses played.
    """
    if record.kind == KIND_PAIR:
        return 0
    if header is None and record.kind == KIND_INDICES:
        raise TraceMismatchError(
            "playing an indices record needs the trace header "
            "(addresses are a function of its layout)"
        )
    accesses = (record.accesses if record.kind == KIND_ACCESSES
                else record.to_trace(header).accesses)
    addresses = [access.address for access in accesses
                 if through_round is None
                 or access.round_index <= through_round]
    transport.victim_loads(addresses)
    return len(addresses)

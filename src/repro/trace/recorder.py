"""Recording: capture a live run as a trace, without perturbing it.

There is one capture point, the victim itself.
:class:`RecordingVictim` wraps it and records every protocol call:
``sbox_indices_by_round`` and ``sbox_index_mask`` (the fast path's
signal, stored packed as the window's index rows),
``load_addresses_by_round`` and ``encrypt_traced`` (the full path's
address stream, stored tagged), and ``encrypt`` (the known-pair
verification channel).  It covers both observer paths, and
every record carries its plaintext, which replay checks.

The wrapper is a pure pass-through: it consumes **no randomness** and
changes **no return values**, so a recorded run is bit-identical to an
unrecorded one (the seed-0 GIFT-64 full-key recovery still takes
exactly 464 encryptions while being recorded — a pinned test).  It
refuses a victim whose load addresses replay would not derive from the
header (:func:`~repro.trace.replay.header_load_addresses`), since that
recording would replay through the wrong addresses.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..staticcheck.secrets import secret_attributes
from ..targets.lut import index_mask
from ..targets.trace import EncryptionTrace
from .errors import TraceError
from .format import (
    KIND_ACCESSES,
    KIND_INDICES,
    KIND_PAIR,
    EncryptionRecord,
    TraceFile,
    TraceHeader,
)
from .replay import header_load_addresses


@secret_attributes("records")
class TraceRecorder:
    """Accumulates :class:`EncryptionRecord` objects during a live run.

    The records carry key-dependent S-box indices/addresses, hence the
    secret-attribute declaration: a trace file is as sensitive as the
    observations it stores.
    """

    def __init__(self, header: TraceHeader) -> None:
        self.header = header
        self.records: List[EncryptionRecord] = []

    def record(self, record: EncryptionRecord) -> None:
        """Append one finished record."""
        self.records.append(record)

    @property
    def windows(self) -> int:
        """Observation windows recorded so far."""
        return sum(1 for record in self.records if record.is_window)

    def to_trace_file(self) -> TraceFile:
        """Snapshot the recording as an immutable :class:`TraceFile`."""
        return TraceFile(header=self.header, records=tuple(self.records))


@secret_attributes("inner")
class RecordingVictim:
    """A TracedVictim wrapper that records every protocol call.

    Implements the same duck-typed surface as the victim it wraps
    (width/rounds/layout, the S-box and PermBits load addresses, plus
    the five observation methods, each implemented here so none
    bypasses the recorder); every other attribute (``attack_target``,
    ``probe_round_offset``, countermeasure knobs, ...) is delegated
    untouched, so target resolution and the observer's capability
    probing see the wrapped victim exactly.
    """

    def __init__(self, victim: Any, recorder: TraceRecorder) -> None:
        loads = (victim.sbox_load_addresses, victim.perm_load_addresses)
        if loads != header_load_addresses(recorder.header):
            raise TraceError(
                f"{type(victim).__name__} loads its tables at addresses "
                f"other than the {recorder.header.target!r} target and "
                f"layout of the header imply; its replay would probe "
                f"the wrong lines"
            )
        self.inner = victim
        self.recorder = recorder

    def __getattr__(self, name: str) -> Any:
        if name in ("inner", "recorder"):
            raise AttributeError(name)
        return getattr(self.inner, name)

    @property
    def width(self) -> int:
        return self.inner.width

    @property
    def rounds(self) -> int:
        return self.inner.rounds

    @property
    def layout(self) -> Any:
        return self.inner.layout

    @property
    def sbox_load_addresses(self) -> Tuple[int, ...]:
        return self.inner.sbox_load_addresses

    @property
    def perm_load_addresses(self) -> Tuple[Tuple[int, ...], ...]:
        return self.inner.perm_load_addresses

    def encrypt(self, plaintext: int) -> int:
        ciphertext = self.inner.encrypt(plaintext)
        self.recorder.record(EncryptionRecord(
            kind=KIND_PAIR, plaintext=plaintext, ciphertext=ciphertext,
        ))
        return ciphertext

    def encrypt_traced(self, plaintext: int,
                       max_rounds: Optional[int] = None
                       ) -> EncryptionTrace:
        trace = self.inner.encrypt_traced(plaintext,
                                          max_rounds=max_rounds)
        rounds_visible = (self.inner.rounds if max_rounds is None
                          else min(max_rounds, self.inner.rounds))
        self.recorder.record(EncryptionRecord(
            kind=KIND_ACCESSES, plaintext=plaintext,
            ciphertext=trace.ciphertext, rounds_visible=rounds_visible,
            accesses=tuple(trace.accesses),
        ))
        return trace

    def load_addresses_by_round(self, plaintext: int,
                                max_rounds: int) -> List[List[int]]:
        # Recorded as the tagged stream encrypt_traced records, so a
        # full-path recording keeps its accesses records.
        return self.encrypt_traced(plaintext, max_rounds).address_runs(
            max_rounds)

    def sbox_indices_by_round(self, plaintext: int,
                              max_rounds: int) -> Any:
        rows = self.inner.sbox_indices_by_round(plaintext, max_rounds)
        self.recorder.record(EncryptionRecord(
            kind=KIND_INDICES, plaintext=plaintext, ciphertext=None,
            rounds_visible=len(rows),
            indices=tuple(tuple(row) for row in rows),
        ))
        return rows

    def sbox_index_mask(self, plaintext: int, first_round: int,
                        last_round: int) -> int:
        # Records the same indices row a sbox_indices_by_round call of
        # the whole window would, so the trace does not depend on which
        # form the observer asked for.
        rows = self.sbox_indices_by_round(plaintext, last_round)
        return index_mask(rows[first_round - 1:])

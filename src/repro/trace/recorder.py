"""Recording: capture a live run as a trace, without perturbing it.

Two capture points cover the observer's two execution paths:

* :class:`RecordingVictim` wraps the victim itself and records every
  protocol call — ``sbox_indices_by_round`` and ``sbox_index_mask``
  (the fast path's signal, stored packed as the window's index rows),
  ``encrypt_traced`` (the full path's tagged address stream), and
  ``encrypt`` (the known-pair verification channel).
  This is the richest capture and the one the recording CLI uses.
* :class:`RecordingTransport` wraps any L2 ``CacheTransport`` (by
  duck-typing its surface — L0 never imports the channel package) and
  records the substrate-level victim address stream, classified
  against the header's :class:`~repro.targets.layout.TableLayout`.
  This is what a hardware probe would see: untagged addresses, window
  boundaries at ``cold()`` resets.

Both wrappers are pure pass-throughs: they consume **no randomness**
and change **no return values**, so a recorded run is bit-identical to
an unrecorded one (the seed-0 GIFT-64 full-key recovery still takes
exactly 464 encryptions while being recorded — a pinned test).

One :class:`TraceRecorder` accepts either capture point but not both
at once: a victim-level and a transport-level recorder observing the
same run would write every access twice.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..staticcheck.secrets import secret_attributes
from ..targets.lut import index_mask
from ..targets.trace import EncryptionTrace, MemoryAccess
from .errors import TraceError
from .format import (
    KIND_ACCESSES,
    KIND_INDICES,
    KIND_PAIR,
    EncryptionRecord,
    TraceFile,
    TraceHeader,
    classify_address,
)


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
        self._sources: set = set()
        self._open_accesses: Optional[List[MemoryAccess]] = None

    # -- capture-point bookkeeping ------------------------------------

    def attach(self, source: str) -> None:
        """Claim a capture point (``"victim"`` or ``"transport"``)."""
        if source not in ("victim", "transport"):
            raise TraceError(f"unknown capture source {source!r}")
        other = "transport" if source == "victim" else "victim"
        if other in self._sources:
            raise TraceError(
                "one recorder cannot capture at both the victim and the "
                "transport level: the same accesses would be recorded "
                "twice (use two recorders if you really want both views)"
            )
        self._sources.add(source)

    # -- record intake -------------------------------------------------

    def record(self, record: EncryptionRecord) -> None:
        """Append one finished record (closing any open raw window)."""
        self.close_window()
        self.records.append(record)

    def append_raw_access(self, access: MemoryAccess) -> None:
        """Append one substrate-level access to the open raw window
        (opening one if needed) — used by :class:`RecordingTransport`."""
        if self._open_accesses is None:
            self._open_accesses = []
        self._open_accesses.append(access)

    def close_window(self, rounds_visible: int = 0) -> None:
        """Close the open raw-access window into an ``accesses`` record."""
        if self._open_accesses is None:
            return
        accesses = tuple(self._open_accesses)
        self._open_accesses = None
        self.records.append(EncryptionRecord(
            kind=KIND_ACCESSES, plaintext=None, ciphertext=None,
            rounds_visible=rounds_visible, accesses=accesses,
        ))

    # -- results -------------------------------------------------------

    @property
    def windows(self) -> int:
        """Observation windows recorded so far."""
        open_window = 1 if self._open_accesses is not None else 0
        return open_window + sum(
            1 for record in self.records if record.is_window
        )

    def to_trace_file(self) -> TraceFile:
        """Snapshot the recording as an immutable :class:`TraceFile`."""
        self.close_window()
        return TraceFile(header=self.header, records=tuple(self.records))


@secret_attributes("inner")
class RecordingVictim:
    """A TracedVictim wrapper that records every protocol call.

    Implements the same duck-typed surface as the victim it wraps
    (width/rounds/layout, the S-box and PermBits load addresses, plus
    the four observation methods, each implemented here so none
    bypasses the recorder); every other attribute (``attack_target``,
    ``probe_round_offset``, countermeasure knobs, ...) is delegated
    untouched, so target resolution and the observer's capability
    probing see the wrapped victim exactly.
    """

    def __init__(self, victim: Any, recorder: TraceRecorder) -> None:
        recorder.attach("victim")
        # object.__setattr__ not needed (plain class), but keep the
        # underscore name out of __getattr__'s delegation loop.
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


@secret_attributes("recorder")
class RecordingTransport:
    """Wraps any L2 ``CacheTransport``; records victim-side addresses.

    Duck-types the transport surface (``access`` / ``flush_line`` /
    ``victim_access`` / ``cold`` / ``check_geometry`` / ``line_bytes``
    plus the capability flags) so it composes into the observer like
    the transport it wraps — the channel package is never imported.
    Attacker-side traffic (``access``/``flush_line``) is *not*
    recorded: the trace captures what the victim leaked, not how the
    probe went looking for it.

    Window boundaries at the substrate level are inferred from the
    probe cycle: a victim access that follows an attacker *reload*
    (``access``) starts a new window — flushes do not count, so a
    mid-encryption flush never splits its window.  That matches every
    reload-style probe loop (Flush+Reload, Prime+Probe); for pure
    flush-latency probing (Flush+Flush's full path) call
    :meth:`mark_window` explicitly, or record at the victim level.
    """

    def __init__(self, inner: Any, recorder: TraceRecorder,
                 *, _attached: bool = False) -> None:
        if not _attached:
            recorder.attach("transport")
        self.inner = inner
        self.recorder = recorder
        self._probe_seen = False

    # -- capability flags (delegated, not copied) ----------------------

    @property
    def supports_prime_probe(self) -> bool:
        return self.inner.supports_prime_probe

    @property
    def supports_fast_path(self) -> bool:
        return self.inner.supports_fast_path

    @property
    def noise_via_victim(self) -> bool:
        return self.inner.noise_via_victim

    @property
    def probe_on_empty_window(self) -> bool:
        return self.inner.probe_on_empty_window

    @property
    def line_bytes(self) -> int:
        return self.inner.line_bytes

    # -- transport surface ---------------------------------------------

    def access(self, address: int) -> bool:
        self._probe_seen = True
        return self.inner.access(address)

    def flush_line(self, address: int) -> bool:
        return self.inner.flush_line(address)

    def victim_access(self, address: int) -> bool:
        if self._probe_seen:
            self.mark_window()
        header = self.recorder.header
        table, segment, index = classify_address(
            header.layout, address, header.segments
        )
        self.recorder.append_raw_access(MemoryAccess(
            address=address, round_index=0, segment=segment,
            table=table, index=index,
        ))
        return self.inner.victim_access(address)

    def mark_window(self) -> None:
        """Explicit window boundary: close the open raw window."""
        self.recorder.close_window()
        self._probe_seen = False

    def cold(self) -> "RecordingTransport":
        # A cold restart is a window boundary: close the raw window so
        # per-window records line up with the observer's resets.
        self.recorder.close_window()
        return RecordingTransport(self.inner.cold(), self.recorder,
                                  _attached=True)

    def check_geometry(self, geometry: Any) -> None:
        self.inner.check_geometry(geometry)

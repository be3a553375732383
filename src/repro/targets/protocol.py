"""The :class:`CipherTarget` protocol: everything GRINCH needs to know
about one table-based SPN cipher.

The attack pipeline (crafting, elimination, recovery, the observation
channel, the experiment engine) is generic over any cipher whose round
function performs secret-indexed loads from a small table.  What is
*not* generic is the bookkeeping: where the key bits sit in the
monitored index, which round the monitored access happens in, how a
constrained round input inverts back to a plaintext, and how recovered
round keys relate to the master key.  A :class:`CipherTarget` captures
exactly that bookkeeping as first-class data and methods, so porting a
new cipher means implementing one class — the L1–L4 channel stack and
the E-registry stay untouched (see ``docs/targets.md`` for the worked
PRESENT-80 port).

Round-key values are opaque to the pipeline: GIFT uses ``(U, V)``
half-pairs, PRESENT a full 64-bit word.  The pipeline only ever moves
them between target methods (:meth:`CipherTarget.invert_rounds`,
:meth:`CipherTarget.assemble_master_key`, ...) or assembles them from
per-segment bit tuples via
:meth:`CipherTarget.round_key_from_segment_bits`.

The one structural assumption that stays: the monitored access of a
``(round t, segment s)`` target reads ``constrained_state[s] XOR
key_bits XOR constants``, where the constrained state is the state just
before the key material enters the monitored S-box layer.  GIFT's key
enters *after* round ``t``'s S+P (monitored access in round ``t + 1``,
:attr:`CipherTarget.probe_round_offset` = 1); PRESENT's key enters
*before* round ``t``'s S-box (monitored in round ``t`` itself,
offset 0).
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional, Sequence, Tuple

try:  # pragma: no cover - Protocol import is version-dependent sugar
    from typing import Protocol
except ImportError:  # pragma: no cover - Python < 3.8
    Protocol = object  # type: ignore[assignment]

from ..staticcheck.equivalence import (
    ObservationPartition,
    partition_by_observation,
    refine,
)
from .layout import SBOX_ENTRIES, TableLayout

#: A round key as one opaque value — ``(U, V)`` for GIFT, an int for
#: PRESENT.  The pipeline never looks inside; only target methods do.
RoundKey = Any


class TracedVictim(Protocol):
    """Duck type of a victim instance the observation channel drives.

    Any object with this surface plugs into
    :class:`~repro.channel.observer.ObservationChannel` — the channel
    additionally reads the optional ``probe_round_offset`` (default 1)
    and ``attack_target`` (registry name) attributes via ``getattr``.
    """

    width: int
    rounds: int
    layout: TableLayout
    #: Byte address each S-box index loads, in index order.
    sbox_load_addresses: Tuple[int, ...]
    #: Byte address of each segment's PermBits load, per S-box index.
    perm_load_addresses: Tuple[Tuple[int, ...], ...]

    def encrypt(self, plaintext: int) -> int: ...

    def encrypt_traced(self, plaintext: int,
                       max_rounds: Optional[int] = None) -> Any: ...

    def sbox_indices_by_round(self, plaintext: int,
                              max_rounds: int) -> List[List[int]]: ...

    def sbox_index_mask(self, plaintext: int, first_round: int,
                        last_round: int) -> int: ...


class CipherTarget(abc.ABC):
    """Structural facts and key-relation algebra of one attackable cipher.

    Concrete targets (``gift64``, ``gift128``, ``present80``,
    ``giftcofb``) are registered in :mod:`repro.targets.registry`;
    :func:`~repro.targets.registry.resolve_target_for` maps a victim
    instance back to its target.
    """

    # ------------------------------------------------------------------
    # Identity and round structure (attributes/properties)
    # ------------------------------------------------------------------

    #: Registry name (``"gift64"``, ``"present80"``, ...).
    name: str
    #: State width in bits.
    width: int
    #: Master-key length in bits.
    key_bits: int
    #: Default round count of the victim.
    rounds: int
    #: Rounds the attack must break for the full master key.
    full_key_rounds: int
    #: Round whose key is schedule-predictable from the attacked rounds,
    #: used to resolve last-round ambiguity.
    verification_round: int
    #: Monitored round of a round-``t`` target is ``t + offset``:
    #: 1 for GIFT (key enters after round ``t``), 0 for PRESENT (key
    #: enters before round ``t``'s S-box layer).
    probe_round_offset: int
    #: Whether a round-1 target constrains the plaintext segment
    #: *directly* (PRESENT: monitored index = plaintext nibble XOR key)
    #: instead of tracing through the previous round's S+P (GIFT).
    first_round_direct: bool
    #: Index-bit offsets (within the monitored 4-bit index) that carry
    #: key bits, in the order key-bit tuples are reported.
    key_offsets: Tuple[int, ...]
    #: Index-bit offsets carrying no key material.
    free_offsets: Tuple[int, ...]
    #: The cipher's S-box, as a 16-entry tuple.
    sbox: Tuple[int, ...]
    #: Qualified names of the declared table layouts backing the
    #: monitored loads (resolvable via ``staticcheck.equivalence``).
    table_names: Tuple[str, ...]
    #: Which attacker-chosen input carries the crafted blocks into the
    #: victim: ``"plaintext"`` for the block ciphers, ``"nonce"`` for
    #: GIFT-COFB (the only attacker-controlled block cipher input the
    #: AEAD mode exposes; see ``docs/targets.md``).
    crafting_channel: str = "plaintext"

    @property
    def segments(self) -> int:
        """Number of 4-bit state segments."""
        return self.width // 4

    @property
    def bits_per_round(self) -> int:
        """Master-key bits recovered per attacked round."""
        return len(self.key_offsets) * self.segments

    # ------------------------------------------------------------------
    # Algorithm-1 support (target tracing)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def inverse_permutation(self) -> Tuple[int, ...]:
        """Inverse of the cipher's bit permutation, full state width."""

    @abc.abstractmethod
    def round_constant_mask(self, round_index: int) -> int:
        """Key-independent XOR mask the monitored round applies to the
        state alongside the key bits (0 for ciphers without state-side
        round constants, e.g. PRESENT)."""

    def inputs_for_output_bits(
            self, constraints: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
        """S-box inputs whose output satisfies every ``(bit, value)``
        constraint — the paper's ``List_A``/``List_B`` construction,
        over this cipher's S-box.

        Memoised per target instance: Algorithm 1 asks for the same few
        constraint tuples on every target it traces.
        """
        key = tuple(constraints)
        memo = self.__dict__.setdefault("_inputs_for_output_bits", {})
        if key not in memo:
            memo[key] = tuple(
                value for value in range(SBOX_ENTRIES)
                if all((self.sbox[value] >> bit) & 1 == wanted
                       for bit, wanted in key)
            )
        return memo[key]

    # ------------------------------------------------------------------
    # Algorithm-2 / Step-5 support (crafting)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def invert_rounds(self, state: int,
                      prior_round_keys: Sequence[RoundKey]) -> int:
        """Invert the crafted constrained state back to a plaintext.

        ``state`` is the constrained state of a round-``t`` target with
        ``t = len(prior_round_keys) + 1`` (the state
        :func:`~repro.core.crafting.build_target_round_input` built from
        the spec's valid-input lists); the return value is the
        plaintext that reaches it under ``prior_round_keys``.
        """

    # ------------------------------------------------------------------
    # Key-relation algebra
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def master_key_bit_positions(self, round_index: int,
                                 segment: int) -> Tuple[int, ...]:
        """Master-key bit indices recovered by one target, in
        ``key_offsets`` order; ``-1`` marks a recovered bit that maps
        nonlinearly (through the key schedule's S-box) rather than to a
        single master-key position."""

    @abc.abstractmethod
    def assemble_master_key(self,
                            round_keys: Sequence[RoundKey]) -> int:
        """Rebuild the master key from the ``full_key_rounds`` recovered
        round keys."""

    @abc.abstractmethod
    def verification_round_key(self,
                               round_keys: Sequence[RoundKey]) -> RoundKey:
        """The verification round's key, derived from the recovered
        round keys (rounds ``1..full_key_rounds``) via the schedule."""

    @abc.abstractmethod
    def segment_key_bits(self, round_key: RoundKey,
                         segment: int) -> Tuple[int, ...]:
        """The key bits one segment's monitored index absorbs, in
        ``key_offsets`` order."""

    @abc.abstractmethod
    def round_key_from_segment_bits(
            self, bits_by_segment: Sequence[Tuple[int, ...]]) -> RoundKey:
        """Assemble a round key from per-segment bit tuples (the
        inverse of :meth:`segment_key_bits` over all segments)."""

    # ------------------------------------------------------------------
    # Victims and references
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def make_victim(self, master_key: int,
                    layout: Optional[TableLayout] = None,
                    rounds: Optional[int] = None) -> TracedVictim:
        """Instantiate the traced LUT victim for this target."""

    @abc.abstractmethod
    def reference_encrypt(self, master_key: int, plaintext: int,
                          rounds: Optional[int] = None) -> int:
        """Ground-truth encryption (bit-level reference implementation)
        used to verify an assembled master key against a known pair."""

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def batch_view(self, victim: Any) -> Optional[Any]:
        """A vectorized index/encryption backend for ``victim``, or
        ``None`` when only the scalar path exists.

        The observation channel treats ``None`` as "loop the scalar
        :meth:`~repro.channel.observer.ObservationChannel.observe`" —
        the correct answer for wrapped victims it cannot see through
        (recording or replay victims) and for ciphers without a
        bitsliced port.
        """
        return None

    # ------------------------------------------------------------------
    # Leakage enumeration (joint per-round bound)
    # ------------------------------------------------------------------

    def observation_partitions(
            self, segment: int, geometry: Any,
            layout: Optional[TableLayout] = None
    ) -> Tuple[ObservationPartition, ...]:
        """Per-site observation partitions of one segment's round work.

        One secret nibble drives two loads per round in the LUT
        victims: the S-box load (address = f(index)) and the scatter
        load (address = f(segment, S(index))).  Each partition maps the
        16 possible nibbles to cache-line observations under
        ``geometry``.
        """
        table_layout = layout if layout is not None else TableLayout()
        sbox = self.sbox
        segments = self.segments
        sbox_site = partition_by_observation(
            SBOX_ENTRIES,
            lambda x: geometry.line_of(table_layout.sbox_address(x)),
        )
        scatter_site = partition_by_observation(
            SBOX_ENTRIES,
            lambda x: geometry.line_of(
                table_layout.perm_address(segment, sbox[x], segments)
            ),
        )
        return (sbox_site, scatter_site)

    def joint_round_partition(
            self, segment: int, geometry: Any,
            layout: Optional[TableLayout] = None) -> ObservationPartition:
        """Joint (refined) partition across all of one segment's sites
        within a single round — ROADMAP item 4's follow-on: the
        per-site bounds miss what the *combination* of the S-box and
        scatter loads reveals."""
        partitions = self.observation_partitions(segment, geometry, layout)
        joint = partitions[0]
        for site in partitions[1:]:
            joint = refine(joint, site)
        return joint

    def joint_bits_per_round(self, geometry: Any,
                             layout: Optional[TableLayout] = None) -> float:
        """Shannon bits one full round leaks across all segments when
        each segment's sites are observed jointly."""
        return sum(
            self.joint_round_partition(segment, geometry, layout)
            .shannon_bits
            for segment in range(self.segments)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug sugar
        return f"<CipherTarget {self.name}>"

"""L4 — the observer API: one entry point for every observation path.

:class:`ObservationChannel` is the stack's top layer and the *only*
observation interface the attack, the variants and the experiment
engine consume.  It composes

* a :class:`~repro.channel.primitive.ProbePrimitive` (L1 — how to read
  residency),
* a :class:`~repro.channel.transport.CacheTransport` (L2 — which
  substrate the probe and victim meet on),
* a tuple of degradations (L3 — loss/jitter decorators), and
* the victim + crafting-independent RNG streams,

and answers the access-driven question *which monitored lines did this
encryption (appear to) touch?* via :meth:`observe` (and, whole-batch,
:meth:`observe_batch`), plus the trace-/time-driven signals of one
window via :meth:`window`.

Two execution paths produce the access-driven answer:

* the **full path** replays the victim's complete address stream
  through the transport and runs the probe primitive on it — used for
  Prime+Probe, cross-core transports, ablations, and as ground truth
  in tests;
* the **fast path** computes the observation directly from the S-box
  accesses in the visible round window — exact for line-granular
  flush-based primitives on a single-level transport under the default
  layouts (monitored lines can never be evicted: the victim's visible
  working set per cache set is far below the paper's 16 ways), and
  ~40x faster, which the million-encryption sweeps of Table I need.
  An equivalence test in the suite proves the two paths agree
  observation-for-observation for every primitive.

RNG discipline: the noise stream (``"{scope}-noise"``), the loss
stream (``"{scope}-loss"``) and the primitive's own signal stream
(``"{scope}-primitive"``) are independently derived from the config
seed, so a lossless, noise-free run consumes exactly the randomness
the pre-stack runner did (seed-0 full-key recovery still takes exactly
464 encryptions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, FrozenSet, List, Optional, Sequence, Tuple

import numpy

from ..targets.protocol import TracedVictim
from ..targets.registry import resolve_target_for
from ..seeding import derive_rng, derive_seed
from ..staticcheck import secret_attributes
from .defender import DefenderObserver
from .monitor import SboxMonitor
from .primitive import ProbePrimitive, make_primitive
from .transport import CacheTransport, SingleLevelTransport


@dataclass(frozen=True)
class MemoryLatencies:
    """Access costs in clock cycles for the time-driven signals.

    The values are frequency-independent cycle counts (SRAM/DRAM at the
    paper's 10-50 MHz operating points is not the bottleneck, so a
    constant-cycle model is adequate and matches their reported numbers).
    """

    l1_hit_cycles: int = 1
    l1_miss_cycles: int = 10
    flush_all_cycles: int = 4
    flush_line_cycles: int = 1

    def __post_init__(self) -> None:
        if min(self.l1_hit_cycles, self.l1_miss_cycles,
               self.flush_all_cycles, self.flush_line_cycles) < 0:
            raise ValueError("latencies must be non-negative")


@dataclass(frozen=True)
class WindowObservation:
    """One encryption's observable signals in the attack window."""

    hit_miss: Tuple[bool, ...]
    latency_cycles: int
    accesses: int

    @property
    def misses(self) -> int:
        """Number of misses in the window (distinct lines touched)."""
        return sum(1 for hit in self.hit_miss if not hit)


@secret_attributes("victim")
class ObservationChannel:
    """Runs crafted encryptions and returns channel observations.

    The channel holds the victim instance (and therefore the secret
    key), but exposes only the side-channel signals: callers submit a
    plaintext and receive the set of monitored lines the probe reports
    (:meth:`observe`), or the window's hit/miss sequence and latency
    (:meth:`window`).

    Parameters
    ----------
    victim:
        The traced table-based cipher under attack.
    config:
        An :class:`~repro.core.config.AttackConfig` (duck-typed: any
        object with the same observation-relevant attributes works).
    rng:
        Optional override of the noise stream (legacy runner knob).
    transport:
        L2 override; defaults to a single shared cache of the config's
        geometry.
    primitive:
        L1 override; defaults to ``config.probe_strategy``.
    degradations:
        L3 decorator stack; defaults to ``(config.loss,)``.
    rng_scope:
        Label prefix of the derived RNG streams.  The default keeps
        bit-identical streams with the historic single-core runner;
        the cross-core subclass uses ``"crosscore"``.
    defender:
        Optional :class:`~repro.channel.defender.DefenderObserver`.
        When given, the transport is wrapped in a counter tap and a
        defender window opens around every :meth:`observe` — the
        full path runs (taps need real events), which is
        observation- and RNG-identical to the fast path, so watching
        never changes what the attacker sees or spends.
    """

    def __init__(self, victim: TracedVictim, config: Any,
                 rng: Optional[random.Random] = None, *,
                 transport: Optional[CacheTransport] = None,
                 primitive: Optional[ProbePrimitive] = None,
                 degradations: Optional[Sequence[Any]] = None,
                 rng_scope: str = "runner",
                 defender: Optional[DefenderObserver] = None) -> None:
        self.victim = victim
        self.config = config
        self.monitor = SboxMonitor.build(victim.layout, config.geometry)
        if transport is None:
            transport = SingleLevelTransport(config.geometry)
        else:
            transport.check_geometry(config.geometry)
        self.defender = defender
        if defender is not None:
            transport = defender.watch(transport)
        self.transport = transport
        if primitive is None:
            primitive = make_primitive(
                config.probe_strategy, self.monitor,
                signal_miss_probability=getattr(
                    config, "flush_flush_miss_probability", 0.0),
                rng=derive_rng(f"{rng_scope}-primitive", config.seed),
            )
        self.primitive = primitive
        if not primitive.flush_based and not transport.supports_prime_probe:
            raise ValueError(
                f"{type(primitive).__name__} needs same-cache contention, "
                f"which {type(transport).__name__} cannot provide "
                f"(a cross-core attacker is clflush-based)"
            )
        if degradations is None:
            degradations = (config.loss,)
        self.degradations: Tuple[Any, ...] = tuple(degradations)
        # Scope-derived so the noise stream is independent of the
        # attacker's crafting stream, and deterministic even when no
        # seed was configured (seed=None is a valid, reproducible seed).
        self._noise_rng = (rng if rng is not None
                           else derive_rng(f"{rng_scope}-noise",
                                           config.seed))
        # The loss stream is separate again so a lossless run consumes
        # exactly the randomness it did before the channel existed.
        self._loss_rng = derive_rng(f"{rng_scope}-loss", config.seed)
        self._monitored_addresses = self.monitor.line_addresses()
        self.encryptions_run = 0
        # Batch-path state, all lazy: the vectorized index source (from
        # the victim's target), the numpy loss stream (a NEW derived
        # stream — "{scope}-loss-batch" — so the scalar loss_rng above
        # keeps its exact pre-batch draw sequence), and the index->line
        # lookup array.
        self._rng_scope = rng_scope
        self._batch_view_resolved = False
        self._batch_view: Optional[Any] = None
        self._loss_batch_gen: Optional[Any] = None
        self._lines_by_index: Optional[Any] = None

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------

    @property
    def fast_path_active(self) -> bool:
        """Whether observations take the accelerated exact path."""
        return (self.config.fast_path_applicable
                and self.primitive.line_granular
                and self.transport.supports_fast_path)

    @property
    def batch_path_active(self) -> bool:
        """Whether :meth:`observe_batch` runs vectorized.

        The batch path requires everything the fast path does, plus a
        perfectly reliable per-line readout (a noisy Flush+Flush signal
        consumes the primitive's RNG per window in scalar order), no
        window-shifting degradation (jitter draws from the scalar loss
        stream before each encryption), batch-aware lossy degradations
        (:meth:`~repro.channel.degradation.LossyChannel.drop_lines_batch`),
        and a vectorized index source for the victim.  Anything else
        falls back to looping :meth:`observe`, which stays bit-exact
        with the historic scalar runs.
        """
        if not self.fast_path_active:
            return False
        if self.primitive.signal_reliability != 1.0:
            return False
        for degradation in self.degradations:
            if degradation.shifts_window:
                return False
            if (not degradation.is_lossless
                    and not hasattr(degradation, "drop_lines_batch")):
                return False
        return self._resolve_batch_view() is not None

    def _resolve_batch_view(self) -> Optional[Any]:
        """The victim's vectorized index source, or ``None``.

        The victim's registered target is asked via ``batch_view`` —
        which answers ``None`` for wrapped victims it cannot see
        through (recording/replay) and for targets without a bitsliced
        backend.
        """
        if not self._batch_view_resolved:
            self._batch_view_resolved = True
            try:
                target = resolve_target_for(self.victim)
                self._batch_view = target.batch_view(self.victim)
            except (TypeError, KeyError, AttributeError):
                self._batch_view = None
        return self._batch_view

    def _batch_loss_generator(self) -> Any:
        if self._loss_batch_gen is None:
            self._loss_batch_gen = numpy.random.default_rng(
                derive_seed(f"{self._rng_scope}-loss-batch",
                            self.config.seed)
            )
        return self._loss_batch_gen

    def _lines_by_index_array(self) -> Any:
        if self._lines_by_index is None:
            self._lines_by_index = numpy.asarray(
                self.monitor.line_by_index, dtype=numpy.int64
            )
        return self._lines_by_index

    @property
    def mid_flush_supported(self) -> bool:
        """Whether the primitive can clear state mid-encryption."""
        return self.primitive.supports_mid_flush

    @property
    def signal_reliability(self) -> float:
        """Mean per-line probability the primitive reads a genuine
        access as present (< 1.0 only for noisy readouts such as
        Flush+Flush)."""
        return self.primitive.signal_reliability

    @property
    def is_lossless(self) -> bool:
        """Whether the composed channel can never lose a genuine access."""
        return (self.primitive.signal_reliability == 1.0
                and all(d.is_lossless for d in self.degradations))

    # ------------------------------------------------------------------
    # Access-driven channel
    # ------------------------------------------------------------------

    def observe(self, plaintext: int, attacked_round: int
                ) -> FrozenSet[int]:
        """Encrypt ``plaintext`` and return the probe's line observation.

        ``attacked_round`` is the round whose key bits are targeted
        (``t``); the monitored accesses happen in round ``t +
        probe_round_offset`` (``t + 1`` for GIFT, whose key enters
        after round ``t``; ``t`` itself for PRESENT).  The probe lands
        after the monitored round plus ``probing_round - 1`` further
        rounds complete, and — when the flush is enabled and the
        primitive supports it — the monitored lines are flushed right
        before the monitored round so earlier rounds leave no residue.
        """
        if attacked_round < 1:
            raise ValueError(
                f"attacked_round must be >= 1, got {attacked_round}"
            )
        self.encryptions_run += 1
        if self.defender is not None:
            self.defender.begin_window(self.primitive.name)
        offset = getattr(self.victim, "probe_round_offset", 1)
        monitored_round = attacked_round + offset
        visible_through = monitored_round - 1 + self.config.probing_round
        for degradation in self.degradations:
            if degradation.shifts_window:
                # A jittered probe lands early or late: late draws add
                # later rounds' accesses, early draws can lose the
                # target round — or the whole window — outright.
                visible_through += degradation.sample_jitter(self._loss_rng)
                visible_through = min(visible_through, self.victim.rounds)
        flush_supported = (self.config.use_flush
                           and self.primitive.supports_mid_flush)
        first_visible = monitored_round if flush_supported else 1

        if visible_through < first_visible:
            observed = self._empty_window_observation()
            if not self.transport.noise_via_victim:
                observed |= self._noise_lines()
        elif self.fast_path_active:
            observed = self.primitive.filter_observation(
                self._fast_observation(
                    plaintext, first_visible, visible_through
                )
            )
            observed |= self._noise_lines()
        else:
            observed = self.primitive.filter_observation(
                self._full_observation(
                    plaintext, monitored_round, visible_through,
                    flush_supported
                )
            )
            if not self.transport.noise_via_victim:
                observed |= self._noise_lines()
        for degradation in self.degradations:
            if not degradation.is_lossless:
                observed = degradation.drop_lines(
                    observed, self.monitor.lines, self._loss_rng
                )
        if self.defender is not None:
            self.defender.end_window()
        return observed

    def observe_batch(self, plaintexts: Sequence[int],
                      attacked_round: int) -> List[FrozenSet[int]]:
        """One observation per plaintext, whole-batch at once.

        Capability-dispatched: when :attr:`batch_path_active` holds,
        all encryptions run through the victim's vectorized index
        source and lossy degradations apply as batch masks on the
        dedicated ``"-loss-batch"`` stream (deterministic at ANY batch
        split — see ``LossyChannel.drop_lines_batch``); otherwise this
        is exactly ``[self.observe(p, attacked_round) for p in
        plaintexts]``.  On a lossless channel the two paths are
        observation-for-observation identical (the noise stream is
        consumed per window in scalar order on both).
        """
        if attacked_round < 1:
            raise ValueError(
                f"attacked_round must be >= 1, got {attacked_round}"
            )
        plaintexts = list(plaintexts)
        if not plaintexts:
            return []
        if not self.batch_path_active:
            return [self.observe(plaintext, attacked_round)
                    for plaintext in plaintexts]
        view = self._resolve_batch_view()
        count = len(plaintexts)
        self.encryptions_run += count
        offset = getattr(self.victim, "probe_round_offset", 1)
        monitored_round = attacked_round + offset
        visible_through = monitored_round - 1 + self.config.probing_round
        flush_supported = (self.config.use_flush
                           and self.primitive.supports_mid_flush)
        first_visible = monitored_round if flush_supported else 1
        indices = numpy.asarray(
            view.sbox_indices_batch(plaintexts, max_rounds=visible_through),
            dtype=numpy.uint8,
        )
        # (rounds', segments, N) -> monitored lines -> per-line presence.
        window_lines = self._lines_by_index_array()[
            indices[first_visible - 1:]
        ].reshape(-1, count)
        present = {
            line: (window_lines == line).any(axis=0)
            for line in self.monitor.lines
        }
        observations: List[FrozenSet[int]] = []
        for n in range(count):
            observed = self.primitive.filter_observation(frozenset(
                line for line in self.monitor.lines if present[line][n]
            ))
            observed |= self._noise_lines()
            observations.append(observed)
        for degradation in self.degradations:
            if not degradation.is_lossless:
                observations = degradation.drop_lines_batch(
                    observations, self.monitor.lines,
                    self._batch_loss_generator(),
                )
        return observations

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def _fast_observation(self, plaintext: int, first_visible: int,
                          visible_through: int) -> FrozenSet[int]:
        indices_by_round = self.victim.sbox_indices_by_round(
            plaintext, max_rounds=visible_through
        )
        line_by_index = self.monitor.line_by_index
        return frozenset(
            line_by_index[index]
            for round_indices in indices_by_round[first_visible - 1:]
            for index in round_indices
        )

    def _full_observation(self, plaintext: int, monitored_round: int,
                          visible_through: int,
                          flush_supported: bool) -> FrozenSet[int]:
        trace = self.victim.encrypt_traced(
            plaintext, max_rounds=visible_through
        )
        self.primitive.reset(self.transport)
        flushed = False
        for access in trace.accesses:
            if (flush_supported and not flushed
                    and access.round_index >= monitored_round):
                self.primitive.mid_flush(self.transport)
                flushed = True
            self.transport.victim_access(access.address)
        if flush_supported and not flushed:
            # The visible window ended exactly at the flush point.
            self.primitive.mid_flush(self.transport)
        if self.transport.noise_via_victim:
            # Cross-core noise is other-tenant traffic on the victim's
            # side of the hierarchy: the probe then observes it
            # naturally instead of having it unioned in afterwards.
            for address in self.config.noise.sample(
                    self._monitored_addresses, self._noise_rng):
                self.transport.victim_access(address)
        return self.primitive.observe(self.transport)

    def _empty_window_observation(self) -> FrozenSet[int]:
        if not self.transport.probe_on_empty_window:
            return frozenset()
        # The cross-core attacker's loop still flushes and probes even
        # when jitter pulled the window empty — a perturbing no-op.
        self.primitive.reset(self.transport)
        return self.primitive.filter_observation(
            self.primitive.observe(self.transport)
        )

    def _noise_lines(self) -> FrozenSet[int]:
        addresses = self.config.noise.sample(
            self._monitored_addresses, self._noise_rng
        )
        if not addresses:
            return frozenset()
        if not self.fast_path_active:
            for address in addresses:
                self.transport.victim_access(address)
        return frozenset(
            self.monitor.geometry.line_of(address) for address in addresses
        )

    # ------------------------------------------------------------------
    # Trace-/time-driven channels
    # ------------------------------------------------------------------

    def window(self, plaintext: int, first_round: int, last_round: int,
               latencies: Optional[MemoryLatencies] = None
               ) -> WindowObservation:
        """Both weaker signals of one encryption's S-box window.

        Starts from a cold transport of the same shape (as after a
        preceding flush or context switch), which is what the
        trace-/time-driven variants assume.
        """
        self.encryptions_run += 1
        return observe_window(
            self.victim, plaintext, self.config.geometry,
            first_round, last_round,
            latencies=latencies if latencies is not None
            else MemoryLatencies(),
            surface=self.transport.cold(),
        )

    # ------------------------------------------------------------------
    # Verification channel
    # ------------------------------------------------------------------

    def known_pair(self, plaintext: int) -> int:
        """Return the victim's ciphertext for ``plaintext``.

        The threat model lets the attacker submit data for encryption and
        see the result; GRINCH uses a single such pair to verify the
        assembled master key (and to disambiguate residual candidates
        with wide cache lines).
        """
        return self.victim.encrypt(plaintext)


def observe_window(victim: TracedVictim, plaintext: int,
                   geometry: Any, first_round: int, last_round: int,
                   latencies: MemoryLatencies = MemoryLatencies(),
                   surface: Optional[CacheTransport] = None
                   ) -> WindowObservation:
    """Run one encryption and collect both side-channel signals.

    Only the S-box loads of rounds ``first_round..last_round`` are
    observed (the PermBits table lives in its own region and, for the
    variants' purposes, contributes a constant offset).  The substrate
    starts cold, as after a flush.
    """
    if first_round > last_round:
        raise ValueError(
            f"empty round window [{first_round}, {last_round}]"
        )
    trace = victim.encrypt_traced(plaintext, max_rounds=last_round)
    if surface is None:
        surface = SingleLevelTransport(geometry)
    hit_miss: List[bool] = []
    latency = 0
    for access in trace.accesses:
        if access.table != "sbox":
            continue
        if not first_round <= access.round_index <= last_round:
            continue
        hit = surface.victim_access(access.address)
        hit_miss.append(hit)
        latency += (latencies.l1_hit_cycles if hit
                    else latencies.l1_miss_cycles)
    return WindowObservation(
        hit_miss=tuple(hit_miss),
        latency_cycles=latency,
        accesses=len(hit_miss),
    )


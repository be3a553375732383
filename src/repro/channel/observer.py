"""L4 — the observer API: one entry point for every observation path.

:class:`ObservationChannel` is the stack's top layer and the *only*
observation interface the attack, the variants and the experiment
engine consume.  It composes

* a :class:`~repro.channel.primitive.ProbePrimitive` (L1 — how to read
  residency),
* a :class:`~repro.channel.transport.CacheTransport` (L2 — which
  substrate the probe and victim meet on),
* the config's :class:`~repro.channel.degradation.LossyChannel` (L3 —
  jitter, eviction and signal misses), and
* the victim + crafting-independent RNG streams,

and answers the access-driven question *which monitored lines did this
encryption (appear to) touch?* via :meth:`observe` (and, whole-batch,
:meth:`observe_batch`), plus the trace-/time-driven signals of one
window via :meth:`window`.

Two execution paths produce the access-driven answer:

* the **full path** replays the victim's complete address stream
  through the transport and runs the probe primitive on it — used for
  Prime+Probe, cross-core transports, ablations, and as ground truth
  in tests.  The victim hands it the window's load addresses as one
  run per round (``load_addresses_by_round``), and the transport gets
  two runs of loads per window (one ``victim_loads`` call with the
  rounds before the mid-encryption flush, one with the rest).  The
  attacker's side is runs too: each phase of the primitive (reset,
  mid-encryption flush, readout) is one transport call.  On the
  end-to-end benchmark a GIFT-64 first-round attack across cores
  through an inclusive two-level hierarchy (``crosscore_firstround``)
  takes ~12 ms on a 2-vCPU x86-64 container;
* the **fast path** asks the victim for one 16-bit S-box index mask of
  the visible round window (``sbox_index_mask``) and turns it into
  lines with two table lookups on the monitor, which maps each index
  through the address the victim really loads for it.  That is the
  probe's readout as long as no monitored line is evicted before the
  probe; the channel's :class:`~repro.channel.monitor.EvictionModel`
  bounds, from the victim's PermBits load addresses, how long a window
  stays eviction-free on an LRU cache (the paper's flushed one-round
  GIFT-64 window does), and reads longer windows out from
  ``sbox_indices_by_round`` as an LRU cache keeps them.  It applies to
  line-granular flush-based primitives on an LRU single-level
  transport.  On the end-to-end benchmark a GIFT-64 full-key attack
  takes about 3.4x longer on the full path (``fullsim_fullkey``,
  ~35 ms) than on this one (``fast_fullkey``, ~10 ms on the same
  container), and one first-round observation about 9x
  (``observer_fast_over_full`` in ``repro.perf``), a speed the
  million-encryption sweeps of Table I need.  The suite's victim
  sweep (``TestPathEquivalence`` in
  ``tests/channel/test_observer.py``) proves the two paths agree
  observation-for-observation for GIFT-64, GIFT-128, PRESENT-80, both
  countermeasure victims and the COFB nonce victim at line sizes of 1
  to 16 words, with and without the mid-encryption flush.

:meth:`observe_batch` runs the fast path's per-window readout once per
plaintext, exactly as looping :meth:`observe` would, and applies the
channel's losses once per batch.  The victim's index mask is
thus the one index source of the attack, scalar or batched.

RNG discipline: the noise stream (``"{scope}-noise"``), the loss
stream (``"{scope}-loss"``) and the primitive's own signal stream
(``"{scope}-primitive"``) are independently derived from the config
seed, so a lossless, noise-free run consumes exactly the randomness
the pre-stack runner did (seed-0 full-key recovery still takes exactly
464 encryptions).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, FrozenSet, List, Optional, Sequence, Tuple

import numpy

from ..targets.protocol import TracedVictim
from ..seeding import derive_rng, derive_seed
from ..staticcheck import secret_attributes
from .defender import DefenderObserver
from .monitor import EvictionModel, SboxMonitor
from .primitive import make_primitive
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
        It alone chooses the primitive (``probe_strategy``) and the
        losses (``loss``).
    transport:
        L2 override; defaults to a single shared cache of the config's
        geometry.
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

    def __init__(self, victim: TracedVictim, config: Any, *,
                 transport: Optional[CacheTransport] = None,
                 rng_scope: str = "runner",
                 defender: Optional[DefenderObserver] = None) -> None:
        self.victim = victim
        self.config = config
        self.monitor = SboxMonitor.build(victim.layout, config.geometry,
                                         victim.sbox_load_addresses)
        if transport is None:
            transport = SingleLevelTransport(config.geometry)
        else:
            transport.check_geometry(config.geometry)
        self.defender = defender
        if defender is not None:
            transport = defender.watch(transport)
        self.transport = transport
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
        # Per-window invariants of observe().  The loss stream draws
        # the jitter before the victim runs and the drops after it.
        self._probe_round_offset: int = getattr(
            victim, "probe_round_offset", 1
        )
        self._jittered: bool = not config.loss.jitter.is_still
        self._lossy: bool = not config.loss.is_lossless
        self._flush_supported: bool = (config.use_flush
                                       and primitive.supports_mid_flush)
        self._fast_path: bool = (config.use_fast_path
                                 and primitive.line_granular
                                 and transport.supports_fast_path)
        # How long a visible window the index mask reads out exactly
        # before the victim's own loads can evict a monitored line.
        self._eviction: Optional[EvictionModel] = (
            EvictionModel.build(self.monitor, victim.perm_load_addresses,
                                victim.rounds)
            if self._fast_path else None
        )
        # A silent noise model draws nothing, so the fast paths and the
        # cross-core victim's noise run skip it.
        self._noise_silent: bool = config.noise.is_silent
        # Scope-derived so the noise stream is independent of the
        # attacker's crafting stream, and deterministic even when no
        # seed was configured (seed=None is a valid, reproducible seed).
        self._noise_rng = derive_rng(f"{rng_scope}-noise", config.seed)
        # The loss stream is separate again so a lossless run consumes
        # exactly the randomness it did before the channel existed.
        self._loss_rng = derive_rng(f"{rng_scope}-loss", config.seed)
        self._monitored_addresses = self.monitor.line_addresses()
        self.encryptions_run = 0
        # observe_batch shares the fast path's per-window readout; it
        # cannot take jitter (drawn per encryption from the scalar loss
        # stream).
        self._batch_path: bool = self._fast_path and not self._jittered
        # The batch loss stream is a NEW derived stream —
        # "{scope}-loss-batch" — so the scalar loss_rng above keeps its
        # exact pre-batch draw sequence; built on first use.
        self._rng_scope = rng_scope
        self._loss_batch_gen: Optional[Any] = None

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------

    @property
    def fast_path_active(self) -> bool:
        """Whether observations take the accelerated exact path."""
        return self._fast_path

    @property
    def batch_path_active(self) -> bool:
        """Whether :meth:`observe_batch` applies its losses per batch.

        The batch path requires the fast path and a still probe (jitter
        draws from the scalar loss stream before each encryption).
        Anything else loops :meth:`observe`, which stays bit-exact with
        the historic scalar runs.
        """
        return self._batch_path

    def _batch_loss_generator(self) -> Any:
        if self._loss_batch_gen is None:
            self._loss_batch_gen = numpy.random.default_rng(
                derive_seed(f"{self._rng_scope}-loss-batch",
                            self.config.seed)
            )
        return self._loss_batch_gen

    @property
    def mid_flush_active(self) -> bool:
        """Whether the monitored lines are flushed right before the
        monitored round (the config asks for it and the primitive can)."""
        return self._flush_supported

    @property
    def signal_reliability(self) -> float:
        """Mean per-line probability the primitive reads a genuine
        access as present (< 1.0 only for noisy readouts such as
        Flush+Flush)."""
        return self.primitive.signal_reliability

    @property
    def is_lossless(self) -> bool:
        """Whether the channel can never lose a genuine access: neither
        the primitive's readout nor ``config.loss`` drops one."""
        return self.signal_reliability == 1.0 and not self._lossy

    @property
    def target_presence(self) -> float:
        """Per-window probability that the target line shows up: the
        loss model's survival rate times the primitive's readout
        reliability.  The voting recovery calibrates against it."""
        return self.config.loss.expected_target_presence(
            len(self.monitor.lines), self.config.probing_round
        ) * self.signal_reliability

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
        rounds complete (or after the victim's last round, if that
        comes first), and — when the flush is enabled and the
        primitive supports it — the monitored lines are flushed right
        before the monitored round so earlier rounds leave no residue.
        """
        monitored_round, first_visible, visible_through = self._window(
            attacked_round
        )
        self.encryptions_run += 1
        if self.defender is not None:
            self.defender.begin_window(self.primitive.name)
        if self._fast_path:
            observed = self._fast_observation(plaintext, first_visible,
                                              visible_through)
        elif visible_through < first_visible:
            observed = self._empty_window_observation()
            if not self.transport.noise_via_victim:
                observed |= self._noise_lines()
        else:
            observed = self.primitive.filter_observation(
                self._full_observation(
                    plaintext, monitored_round, visible_through,
                    self._flush_supported
                )
            )
            if not self.transport.noise_via_victim:
                observed |= self._noise_lines()
        if self._lossy:
            observed = self.config.loss.drop_lines(
                observed, self.monitor.lines, self._loss_rng
            )
        if self.defender is not None:
            self.defender.end_window()
        return observed

    def observe_batch(self, plaintexts: Sequence[int],
                      attacked_round: int) -> List[FrozenSet[int]]:
        """One observation per plaintext, losses applied whole-batch.

        When :attr:`batch_path_active` holds, each plaintext gets the
        fast path's per-window readout in order — the victim's index
        mask, the primitive's readout filter and the noise stream
        consumed exactly as looping :meth:`observe` consumes them — and
        the channel's losses then apply as batch masks on the dedicated
        ``"-loss-batch"`` stream (deterministic at ANY batch split —
        see ``LossyChannel.drop_lines_batch``).  Otherwise this is
        exactly ``[self.observe(p, attacked_round) for p in
        plaintexts]``.  On a lossless channel the two are
        observation-for-observation identical.
        """
        if not self._batch_path:
            return [self.observe(plaintext, attacked_round)
                    for plaintext in plaintexts]
        _, first_visible, visible_through = self._window(attacked_round)
        observations = [
            self._fast_observation(plaintext, first_visible, visible_through)
            for plaintext in plaintexts
        ]
        self.encryptions_run += len(observations)
        if self._lossy:
            observations = self.config.loss.drop_lines_batch(
                observations, self.monitor.lines,
                self._batch_loss_generator(),
            )
        return observations

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def _window(self, attacked_round: int) -> Tuple[int, int, int]:
        """``(monitored_round, first_visible, visible_through)`` of one
        encryption, with its jitter drawn; the probe never lands past
        the victim's last round."""
        if attacked_round < 1:
            raise ValueError(
                f"attacked_round must be >= 1, got {attacked_round}"
            )
        monitored_round = attacked_round + self._probe_round_offset
        visible_through = monitored_round - 1 + self.config.probing_round
        if self._jittered:
            # A jittered probe lands early or late: late draws add later
            # rounds' accesses, early draws can lose the target round —
            # or the whole window — outright.
            visible_through += self.config.loss.jitter.sample(self._loss_rng)
        if visible_through > self.victim.rounds:
            visible_through = self.victim.rounds
        first_visible = monitored_round if self._flush_supported else 1
        return monitored_round, first_visible, visible_through

    def _fast_observation(self, plaintext: int, first_visible: int,
                          visible_through: int) -> FrozenSet[int]:
        """The fast path's whole readout of one window: the index mask
        (or, past ``safe_rounds``, the LRU readout), the primitive's
        filter, then the noise."""
        assert self._eviction is not None
        span = visible_through - first_visible
        if span < 0:
            lines: FrozenSet[int] = frozenset()
        elif span < self._eviction.safe_rounds:
            lines = self.monitor.lines_of_mask(self.victim.sbox_index_mask(
                plaintext, first_visible, visible_through
            ))
        else:
            rows = self.victim.sbox_indices_by_round(plaintext,
                                                     visible_through)
            lines = self._eviction.readout(rows[first_visible - 1:])
        observed = self.primitive.filter_observation(lines)
        if not self._noise_silent:
            observed |= self._noise_lines()
        return observed

    def _full_observation(self, plaintext: int, monitored_round: int,
                          visible_through: int,
                          flush_supported: bool) -> FrozenSet[int]:
        runs = self.victim.load_addresses_by_round(plaintext,
                                                   visible_through)
        transport = self.transport
        self.primitive.reset(transport)
        if flush_supported:
            # The flush lands right before the monitored round's first
            # load.
            transport.victim_loads(chain.from_iterable(
                runs[:monitored_round - 1]))
            self.primitive.mid_flush(transport)
            runs = runs[monitored_round - 1:]
        transport.victim_loads(chain.from_iterable(runs))
        if transport.noise_via_victim and not self._noise_silent:
            # Cross-core noise is other-tenant traffic on the victim's
            # side of the hierarchy: the probe then observes it
            # naturally instead of having it unioned in afterwards.
            transport.victim_loads(self.config.noise.sample(
                self._monitored_addresses, self._noise_rng))
        return self.primitive.observe(transport)

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
        if not self._fast_path:
            self.transport.victim_loads(addresses)
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
    variants' purposes, contributes a constant offset).  They are the
    first half of each of those rounds' runs of
    ``load_addresses_by_round``: a round loads one S-box entry and then
    one PermBits row per segment.  The substrate starts cold, as after
    a flush, and takes the window's S-box loads as one run.
    """
    if first_round > last_round:
        raise ValueError(
            f"empty round window [{first_round}, {last_round}]"
        )
    runs = victim.load_addresses_by_round(plaintext, last_round)
    if surface is None:
        surface = SingleLevelTransport(geometry)
    hit_miss: List[bool] = []
    hits = surface.victim_loads(
        [address for run in runs[first_round - 1:]
         for address in run[:len(run) // 2]],
        hit_miss,
    )
    return WindowObservation(
        hit_miss=tuple(hit_miss),
        latency_cycles=(hits * latencies.l1_hit_cycles
                        + (len(hit_miss) - hits) * latencies.l1_miss_cycles),
        accesses=len(hit_miss),
    )


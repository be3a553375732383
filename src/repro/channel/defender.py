"""L4 — the defender's side of the channel: counter-based detection.

Flush+Flush exists *because* defenders watch performance counters:
Gruss et al. built it to evade detectors that flag the cache-miss
storms of Flush+Reload and Prime+Probe (the HexPADS line of work).
This module gives the reproduction that defender, so "stealthy" is a
measured number instead of a citation:

* :class:`DefenderObserver` is a performance-counter-style monitor: it
  accumulates per-window **counter deltas** — victim/attacker hit and
  miss rates, flush counts with the resident/absent split, eviction
  and back-invalidate counts — sourced exclusively from
  :class:`~repro.cache.setassoc.CacheStats` /
  :class:`~repro.cache.multilevel.HierarchyStats` differences.  It
  never reads victim metadata, addresses, or cache content: everything
  it sees, a real PMU exposes.
* :class:`ObservedTransport` is the tap: a delegating
  :class:`~repro.channel.transport.CacheTransport` that attributes
  counter deltas to the role that issued the operations (the per-core
  PMCs of a real system).  Like a PMU read per interval rather than
  per load, it snapshots the counters once per *phase* — a run of
  operations by one role on one substrate — and at window edges, not
  around every load.  The defender only sums deltas, so the per-role
  totals are exactly what per-operation snapshots would give.  It
  advertises
  ``supports_fast_path = False`` so the observer runs the full
  simulation — the analytic fast path never touches the substrate, so
  there would be no events to count.  The two paths are
  observation-identical and draw identical RNG (test-pinned), which
  makes watching **transparent**: same observations, same encryption
  counts, seed-0 GIFT-64 recovery still takes exactly 464 encryptions
  under the defender's eye.
* :class:`DetectionPolicy` turns a window's counters into flags.  The
  default thresholds fire only on events commodity PMUs actually
  count — attacker-core cache misses and cache evictions.  Flush
  counts are *reported* but unflagged by default: no mainstream PMU
  has a ``clflush`` event, which is precisely Flush+Flush's stealth
  argument — its windows contain flushes and nothing else.

The per-primitive signatures this makes measurable (default GIFT-64
geometry, 16 monitored lines):

=============  =======================================================
Flush+Reload   the reload step *is* a miss storm: every monitored line
               the victim did not touch misses on reload.
Flush+Flush    flush-only windows — zero attacker accesses, zero
               attacker misses, zero evictions; only the (un-counted)
               flush events and their resident/absent split remain.
Prime+Probe    mass eviction traffic: priming walks every way of every
               monitored set and the probe step repeats it, so both
               miss and eviction counters light up.
=============  =======================================================

E20 (``repro.engine.stealth``) sweeps this into the stealth-vs-effort
frontier; ``docs/stealth.md`` defines the detectability metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .transport import CacheTransport

__all__ = [
    "CounterDelta",
    "DefenderObserver",
    "DefenderReport",
    "DetectionPolicy",
    "ObservedTransport",
    "WindowCounters",
    "read_counters",
]


@dataclass(frozen=True)
class CounterDelta:
    """A snapshot (or difference) of the substrate's event counters.

    The fields are the union of what :class:`CacheStats` and
    :class:`HierarchyStats` expose, normalised to one shape so the
    defender is transport-agnostic: ``accesses``/``hits``/``misses``
    are demand loads (a hierarchy's "miss" is a memory fetch),
    ``evictions`` are capacity victims at any level,
    ``back_invalidates`` are inclusive-L2 kills of L1 copies, and the
    flush triple carries the per-line resident/absent split.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0
    flush_hits: int = 0
    flush_misses: int = 0
    back_invalidates: int = 0

    def __add__(self, other: "CounterDelta") -> "CounterDelta":
        return CounterDelta(*(
            getattr(self, f.name) + getattr(other, f.name)
            for f in fields(CounterDelta)
        ))

    def __sub__(self, other: "CounterDelta") -> "CounterDelta":
        return CounterDelta(*(
            getattr(self, f.name) - getattr(other, f.name)
            for f in fields(CounterDelta)
        ))

    @property
    def hit_rate(self) -> float:
        """Fraction of demand loads that hit (0.0 when idle)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Fraction of demand loads that missed (0.0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def pmc_visible(self) -> int:
        """Events a commodity performance counter can see.

        Demand misses, capacity evictions, and back-invalidates all
        have PMU events on real hardware; ``clflush`` does not (the
        Flush+Flush stealth argument), so flushes are excluded.
        """
        return self.misses + self.evictions + self.back_invalidates


#: The all-zero delta (also the "cold counters" snapshot).
_ZERO = CounterDelta()


def read_counters(transport: Any) -> CounterDelta:
    """Normalised counter snapshot of a transport's substrate.

    Duck-typed on the substrate attribute, never on concrete classes:
    a transport participates by exposing either a ``cache``
    (:class:`CacheStats`) or a ``hierarchy`` (:class:`HierarchyStats`),
    and a wrapper that holds an ``inner`` transport (the defender's own
    :class:`ObservedTransport`) is unwrapped.  Only aggregate counters
    are read — no addresses, tags, or victim state.
    """
    inner = getattr(transport, "inner", None)
    if inner is not None:
        return read_counters(inner)
    cache = getattr(transport, "cache", None)
    if cache is not None:
        stats = cache.stats
        return CounterDelta(
            accesses=stats.accesses, hits=stats.hits, misses=stats.misses,
            evictions=stats.evictions, flushes=stats.flushes,
            flush_hits=stats.flush_hits, flush_misses=stats.flush_misses,
        )
    hierarchy = getattr(transport, "hierarchy", None)
    if hierarchy is not None:
        stats = hierarchy.stats
        hits = stats.l1_hits + stats.l2_hits
        return CounterDelta(
            accesses=hits + stats.memory_fetches, hits=hits,
            misses=stats.memory_fetches, evictions=stats.evictions,
            flushes=stats.flushes, flush_hits=stats.flush_hits,
            flush_misses=stats.flush_misses,
            back_invalidates=stats.back_invalidates,
        )
    raise TypeError(
        f"{type(transport).__name__} exposes neither a 'cache' nor a "
        f"'hierarchy' substrate — nothing for a defender to count"
    )


@dataclass
class WindowCounters:
    """One probe window's per-role counter deltas.

    ``attacker`` accumulates deltas of the attacker's operations
    (probe accesses and flushes), ``victim`` those of victim-side
    traffic (the encryption itself plus co-runner noise, which a real
    defender cannot tell apart).  ``flags`` holds the detection
    reasons the policy raised when the window closed.
    """

    index: int
    primitive: str = ""
    attacker: CounterDelta = _ZERO
    victim: CounterDelta = _ZERO
    flags: Tuple[str, ...] = ()

    @property
    def total(self) -> CounterDelta:
        """Role-blind view (a global, unattributed PMU)."""
        return self.attacker + self.victim

    @property
    def pmc_visible(self) -> int:
        """The window's detectability raw material.

        Attacker-attributed events only: the victim's own table
        traffic evicts its own lines all day (the GIFT PermBits
        working set alone keeps sets churning), so a detector
        thresholding global eviction counts would flag the *victim*.
        A deployed detector baselines the protected workload away;
        attributing each event to the core whose operation caused it
        — which is exactly what per-core PMCs do for misses — is that
        baseline, applied exactly.
        """
        return (self.attacker.misses
                + self.attacker.evictions
                + self.attacker.back_invalidates)

    @property
    def flagged(self) -> bool:
        """Whether the detection policy fired on this window."""
        return bool(self.flags)


@dataclass(frozen=True)
class DetectionPolicy:
    """Per-window thresholds over the defender's counters.

    A threshold of ``None`` disables that detector.  The defaults
    model a HexPADS-style PMU detector: they fire on attacker-core
    miss storms and on shared-cache eviction storms, and deliberately
    have **no flush detector** — commodity PMUs cannot count
    ``clflush``, which is the documented reason Flush+Flush windows
    sail through.  Set ``max_flushes`` to model hypothetical
    flush-counting hardware and watch Flush+Flush light up.
    """

    max_attacker_misses: Optional[int] = 4
    max_evictions: Optional[int] = 8
    max_flushes: Optional[int] = None
    max_victim_miss_rate: Optional[float] = None

    def flags(self, window: WindowCounters) -> Tuple[str, ...]:
        """Detection reasons for one closed window (empty = clean).

        Both storm detectors look at attacker-attributed counts only:
        the victim's own eviction/miss baseline belongs to the
        workload, not the attack (see
        :attr:`WindowCounters.pmc_visible`).
        """
        reasons: List[str] = []
        if (self.max_attacker_misses is not None
                and window.attacker.misses > self.max_attacker_misses):
            reasons.append("attacker-miss-storm")
        evictions = (window.attacker.evictions
                     + window.attacker.back_invalidates)
        if (self.max_evictions is not None
                and evictions > self.max_evictions):
            reasons.append("eviction-storm")
        if (self.max_flushes is not None
                and window.attacker.flushes > self.max_flushes):
            reasons.append("flush-storm")
        if (self.max_victim_miss_rate is not None
                and window.victim.accesses
                and window.victim.miss_rate > self.max_victim_miss_rate):
            reasons.append("victim-miss-rate")
        return tuple(reasons)


@dataclass(frozen=True)
class DefenderReport:
    """Aggregate verdict over every window the defender saw.

    ``detectability`` is the metric E20 plots: mean PMC-visible events
    per window (attacker misses + evictions + back-invalidates).  It
    is zero for a perfectly stealthy attacker and grows with exactly
    the traffic a real detector thresholds on; ``detection_rate`` is
    the thresholded view under the configured policy.
    """

    windows: int
    flagged_windows: int
    detection_rate: float
    detectability: float
    attacker_accesses_per_window: float
    attacker_misses_per_window: float
    evictions_per_window: float
    flushes_per_window: float
    flush_resident_per_window: float
    flush_absent_per_window: float
    attacker_hit_rate: float
    victim_hit_rate: float
    victim_miss_rate: float
    flag_reasons: Dict[str, int]
    primitives: Tuple[str, ...]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form for engine artifacts."""
        return {
            "windows": self.windows,
            "flagged_windows": self.flagged_windows,
            "detection_rate": self.detection_rate,
            "detectability": self.detectability,
            "attacker_accesses_per_window":
                self.attacker_accesses_per_window,
            "attacker_misses_per_window":
                self.attacker_misses_per_window,
            "evictions_per_window": self.evictions_per_window,
            "flushes_per_window": self.flushes_per_window,
            "flush_resident_per_window": self.flush_resident_per_window,
            "flush_absent_per_window": self.flush_absent_per_window,
            "attacker_hit_rate": self.attacker_hit_rate,
            "victim_hit_rate": self.victim_hit_rate,
            "victim_miss_rate": self.victim_miss_rate,
            "flag_reasons": dict(self.flag_reasons),
            "primitives": list(self.primitives),
        }


class DefenderObserver:
    """Performance-counter-style monitor, fed by an observed transport.

    The observation channel opens a window around every probe
    (:meth:`begin_window` / :meth:`end_window`); traffic outside any
    window — e.g. the cold replays of the trace-/time-driven variants
    — accumulates in the :attr:`ambient` buckets instead, so nothing
    the tap sees is ever dropped.

    The defender consumes **no randomness** and perturbs **no state**:
    it only subtracts counter snapshots the substrate maintains
    anyway, which is what keeps a watched attack bit-identical to an
    unwatched one.

    Counters are settled per phase: the running phase (one role on one
    tapped substrate) is read out when a tap changes role or
    substrate, at :meth:`begin_window`/:meth:`end_window`, and before
    :attr:`ambient` or :meth:`report` is read.
    """

    def __init__(self, policy: Optional[DetectionPolicy] = None) -> None:
        self.policy = policy if policy is not None else DetectionPolicy()
        self.windows: List[WindowCounters] = []
        self._ambient: Dict[str, CounterDelta] = {
            "attacker": _ZERO, "victim": _ZERO,
        }
        self._current: Optional[WindowCounters] = None
        # The running phase, (substrate, role), and its counters when
        # it was last settled.
        self._phase: Optional[Tuple[CacheTransport, str]] = None
        self._since: CounterDelta = _ZERO

    @property
    def ambient(self) -> Dict[str, CounterDelta]:
        """Per-role counters of the traffic outside any window."""
        self._settle()
        return self._ambient

    # ------------------------------------------------------------------
    # Tap
    # ------------------------------------------------------------------

    def watch(self, transport: CacheTransport) -> "ObservedTransport":
        """Wrap ``transport`` so its events feed this defender."""
        return ObservedTransport(transport, self)

    def record(self, role: str, delta: CounterDelta) -> None:
        """A counter delta, attributed to ``role``."""
        if role not in self._ambient:
            raise ValueError(f"unknown role {role!r}")
        window = self._current
        if window is None:
            self._ambient[role] = self._ambient[role] + delta
        elif role == "attacker":
            window.attacker = window.attacker + delta
        else:
            window.victim = window.victim + delta

    def _enter(self, phase: Tuple[CacheTransport, str]) -> None:
        """Settle the running phase and start ``phase``."""
        self._settle()
        self._phase = phase
        self._since = read_counters(phase[0])

    def _settle(self) -> None:
        """Attribute the running phase's counters since the last
        settlement to its role."""
        if self._phase is None:
            return
        substrate, role = self._phase
        now = read_counters(substrate)
        self.record(role, now - self._since)
        self._since = now

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------

    def begin_window(self, primitive: str = "") -> None:
        """Open a probe window (closing any window left open)."""
        self._settle()
        if self._current is not None:
            self.end_window()
        self._current = WindowCounters(index=len(self.windows),
                                       primitive=primitive)

    def end_window(self) -> Optional[WindowCounters]:
        """Close the open window, run detection, and archive it."""
        self._settle()
        window = self._current
        if window is None:
            return None
        self._current = None
        window.flags = self.policy.flags(window)
        self.windows.append(window)
        return window

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------

    def report(self) -> DefenderReport:
        """Aggregate everything seen so far into one report."""
        self._settle()
        count = len(self.windows)
        flagged = sum(1 for w in self.windows if w.flagged)
        reasons: Dict[str, int] = {}
        for window in self.windows:
            for reason in window.flags:
                reasons[reason] = reasons.get(reason, 0) + 1
        attacker = sum((w.attacker for w in self.windows), _ZERO)
        victim = sum((w.victim for w in self.windows), _ZERO)
        per = float(count) if count else 1.0
        return DefenderReport(
            windows=count,
            flagged_windows=flagged,
            detection_rate=flagged / count if count else 0.0,
            detectability=(sum(w.pmc_visible for w in self.windows)
                           / per),
            attacker_accesses_per_window=attacker.accesses / per,
            attacker_misses_per_window=attacker.misses / per,
            evictions_per_window=((attacker.evictions
                                   + attacker.back_invalidates) / per),
            flushes_per_window=attacker.flushes / per,
            flush_resident_per_window=attacker.flush_hits / per,
            flush_absent_per_window=attacker.flush_misses / per,
            attacker_hit_rate=attacker.hit_rate,
            victim_hit_rate=victim.hit_rate,
            victim_miss_rate=victim.miss_rate,
            flag_reasons=reasons,
            primitives=tuple(sorted({w.primitive for w in self.windows
                                     if w.primitive})),
        )


class ObservedTransport(CacheTransport):
    """A transport with a defender's counter tap.

    Delegates every operation and capability to ``inner`` except
    ``supports_fast_path``, which is forced off: the analytic fast
    path computes observations without touching the substrate, so a
    watched channel must run the full simulation for the counters to
    mean anything.  The full path is observation-identical to the fast
    path and draws the same RNG streams (asserted by the equivalence
    suite), so forcing it changes *nothing* the attacker sees — only
    what the defender does.
    """

    def __init__(self, inner: CacheTransport,
                 defender: DefenderObserver) -> None:
        self.inner = inner
        self.defender = defender
        self.supports_prime_probe = inner.supports_prime_probe
        self.supports_fast_path = False
        self.noise_via_victim = inner.noise_via_victim
        self.probe_on_empty_window = inner.probe_on_empty_window
        # This substrate's phases; an operation whose phase is not the
        # defender's running one settles it (identity check only).
        self._attacker = (inner, "attacker")
        self._victim = (inner, "victim")

    def access_lines(self, addresses: Iterable[int]) -> List[bool]:
        if self.defender._phase is not self._attacker:
            self.defender._enter(self._attacker)
        return self.inner.access_lines(addresses)

    def flush_lines(self, addresses: Iterable[int]) -> List[bool]:
        if self.defender._phase is not self._attacker:
            self.defender._enter(self._attacker)
        return self.inner.flush_lines(addresses)

    def victim_loads(self, addresses: Iterable[int],
                     hits: Optional[List[bool]] = None) -> int:
        if self.defender._phase is not self._victim:
            self.defender._enter(self._victim)
        return self.inner.victim_loads(addresses, hits)

    def cold(self) -> "ObservedTransport":
        """A cold inner substrate under the *same* defender's tap."""
        return ObservedTransport(self.inner.cold(), self.defender)

    def check_geometry(self, geometry: Any) -> None:
        self.inner.check_geometry(geometry)

    @property
    def line_bytes(self) -> int:
        return self.inner.line_bytes

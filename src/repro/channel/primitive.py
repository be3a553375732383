"""L1 — cache probing primitives (Step 2 of the GRINCH methodology).

The bottom layer of the observation-channel stack: a
:class:`ProbePrimitive` knows how to *prepare*, *reset mid-run* and
*read out* the monitored lines on any substrate that takes attacker
loads and flushes as runs (the run-based :class:`ProbeSurface`
protocol, ``access_lines``/``flush_lines`` — satisfied natively by
:class:`~repro.cache.setassoc.SetAssociativeCache` and by every
:class:`~repro.channel.transport.CacheTransport`).  Every phase of a
window — reset, mid-encryption flush, readout — is one call on the
surface.

Three classical access-driven primitives are provided:

* **Flush+Reload** — the paper's choice: the attacker flushes the
  monitored lines, lets the victim run, and reloads each line, timing
  the reload (hit = victim touched it).  Because a flush is a single
  fast operation it can also be issued *mid-encryption* (the paper's
  "Grinch with Flush" series), discarding earlier rounds' noise.

* **Prime+Probe** — the attacker fills the monitored cache *sets* with
  its own lines, lets the victim run, then re-accesses its lines; a miss
  means the victim displaced something in that set.  Observation is
  set-granular, so unrelated victim tables (PermBits) that collide in
  the same sets produce false positives — one reason Flush+Reload is the
  better choice for GRINCH (Section III-C).

* **Flush+Flush** — Gruss et al.'s stealthier flush-latency channel:
  the probe is ``clflush`` itself, whose latency reveals whether the
  line was cached, and the flush *is* the reset for the next window.
  The latency margin is small and varies with the cache slice/set the
  line maps to, so the per-line hit/miss signal is unreliable: the
  primitive carries a set-granular false-negative profile
  (``signal_miss_probability`` scaled by a per-set weight) instead of
  the perfect readout of Flush+Reload.

Primitives translate raw hit/miss results into "monitored line was
touched" observations; they never read the victim's metadata.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from itertools import chain, compress
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

try:  # Python 3.8+: typing.Protocol
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

from .monitor import SboxMonitor

#: Probe primitive names, in presentation order.
PRIMITIVE_NAMES = ("flush_reload", "prime_probe", "flush_flush")


class ProbeSurface(Protocol):
    """What a primitive needs from the substrate it probes.

    The surface is run-based: each call takes a whole sequence of
    addresses and returns one result per address, in order, exactly as
    a per-line loop would.  ``access_lines`` performs attacker loads
    and reports whether each hit; ``flush_lines`` models ``clflush``
    and reports whether each line was present anywhere the flush could
    see it.  A bare :class:`~repro.cache.setassoc.SetAssociativeCache`
    satisfies this protocol directly; cross-core substrates adapt it
    through a :class:`~repro.channel.transport.CacheTransport`.
    """

    def access_lines(self, addresses: Iterable[int]
                     ) -> List[bool]:  # pragma: no cover - protocol
        ...

    def flush_lines(self, addresses: Iterable[int]
                    ) -> List[bool]:  # pragma: no cover - protocol
        ...


class ProbePrimitive(ABC):
    """One probing primitive bound to a monitor (what to watch)."""

    #: Config name of the primitive (matches ``AttackConfig.probe_strategy``).
    name: str = "abstract"

    #: Whether the primitive can clear the monitored state mid-encryption.
    supports_mid_flush: bool = False

    #: Whether the primitive's reset/observe are built on ``clflush``
    #: (such primitives work through any flush-capable transport,
    #: including the cross-core shared-L2 one).
    flush_based: bool = False

    #: Whether observations resolve individual lines (exact fast path);
    #: set-granular primitives must run on the full simulation.
    line_granular: bool = False

    def __init__(self, monitor: SboxMonitor) -> None:
        self.monitor = monitor
        #: Every monitored line and its representative address, in one
        #: order: a primitive probes the addresses as one run.
        self._lines: Tuple[int, ...] = tuple(monitor.lines)
        self._addresses: Tuple[int, ...] = tuple(monitor.line_addresses())

    @abstractmethod
    def reset(self, surface: ProbeSurface) -> None:
        """Prepare the substrate before the victim runs."""

    def mid_flush(self, surface: ProbeSurface) -> None:
        """Clear monitored state mid-encryption (if supported)."""
        raise NotImplementedError(
            f"{type(self).__name__} cannot flush mid-encryption"
        )

    @abstractmethod
    def observe(self, surface: ProbeSurface) -> FrozenSet[int]:
        """Return the monitored lines the victim (apparently) touched."""

    def filter_observation(self, observed: FrozenSet[int]
                           ) -> FrozenSet[int]:
        """Apply the primitive's own signal degradation to a raw readout.

        The observer applies this to *both* execution paths (analytic
        fast path and full simulation), so a noisy primitive keeps the
        two observation-for-observation identical.  The default readout
        is perfect.
        """
        return observed

    @property
    def signal_reliability(self) -> float:
        """Mean probability that a genuinely present line is read as hit.

        The voting recovery calibrates its expected target presence
        against this (1.0 for primitives with a perfect readout).
        """
        return 1.0


class FlushReload(ProbePrimitive):
    """Flush+Reload over the S-box table lines."""

    name = "flush_reload"
    supports_mid_flush = True
    flush_based = True
    line_granular = True

    def reset(self, surface: ProbeSurface) -> None:
        surface.flush_lines(self._addresses)

    def mid_flush(self, surface: ProbeSurface) -> None:
        self.reset(surface)

    def observe(self, surface: ProbeSurface) -> FrozenSet[int]:
        # The "reload": a hit means the line was resident.
        return frozenset(compress(self._lines,
                                  surface.access_lines(self._addresses)))


class PrimeProbe(ProbePrimitive):
    """Prime+Probe over the cache sets holding the S-box table.

    The attacker owns ``ways`` lines per monitored set, placed at a
    disjoint tag range (modelling its own arrays).  Observation marks
    *every* monitored line whose set shows evictions — the set-granular
    over-approximation inherent to the primitive.
    """

    name = "prime_probe"
    supports_mid_flush = False
    flush_based = False
    line_granular = False

    #: Tag offset of the attacker's eviction arrays (far from the victim).
    ATTACKER_TAG_BASE = 1 << 20

    def __init__(self, monitor: SboxMonitor) -> None:
        super().__init__(monitor)
        geometry = monitor.geometry
        lines_by_set: Dict[int, List[int]] = {}
        for line, address in zip(self._lines, self._addresses):
            lines_by_set.setdefault(geometry.set_of(address), []).append(line)
        #: The monitored lines of each primed set, in priming order.
        self._set_lines: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(lines) for lines in lines_by_set.values()
        )
        #: One run of ``ways`` attacker lines per monitored set.
        self._prime_run: Tuple[int, ...] = tuple(
            (self.ATTACKER_TAG_BASE + way) * geometry.num_sets
            * geometry.line_bytes
            + set_index * geometry.line_bytes
            for set_index in lines_by_set
            for way in range(geometry.ways)
        )

    def reset(self, surface: ProbeSurface) -> None:
        surface.access_lines(self._prime_run)

    def observe(self, surface: ProbeSurface) -> FrozenSet[int]:
        hits = surface.access_lines(self._prime_run)
        ways = self.monitor.geometry.ways
        # A set shows an eviction when any of its attacker lines missed.
        return frozenset(chain.from_iterable(
            lines for start, lines in zip(range(0, len(hits), ways),
                                          self._set_lines)
            if not all(hits[start:start + ways])
        ))


class FlushFlush(ProbePrimitive):
    """Flush+Flush: probe the monitored lines with ``clflush`` itself.

    A ``clflush`` of a cached line takes measurably longer than one of
    an uncached line, so the flush both *reads* residency and *resets*
    the line for the next window — no reload ever touches the cache,
    which is what makes the primitive stealthy.  The price is signal
    quality: the latency margin is a handful of cycles and shifts with
    the slice/set the address maps to, so a genuinely present line is
    sometimes read as absent.  ``signal_miss_probability`` is that
    per-readout false-negative rate; it is scaled per cache set by
    :data:`SET_WEIGHT_PROFILE` (deterministic in the line's set index)
    to model the set-dependent margins Gruss et al. measured.

    With ``signal_miss_probability == 0`` the primitive is an exact,
    reload-free Flush+Reload — the equivalence tests exploit this.
    """

    name = "flush_flush"
    supports_mid_flush = True
    flush_based = True
    line_granular = True

    #: Per-set multipliers of the base miss probability (mean 1.0): the
    #: flush-latency threshold is tighter in some sets than others.
    SET_WEIGHT_PROFILE = (0.5, 1.25, 1.5, 0.75)

    def __init__(self, monitor: SboxMonitor,
                 signal_miss_probability: float = 0.0,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(monitor)
        if not 0.0 <= signal_miss_probability < 1.0:
            raise ValueError(
                f"signal_miss_probability must be in [0, 1), "
                f"got {signal_miss_probability}"
            )
        if signal_miss_probability > 0.0 and rng is None:
            raise ValueError(
                "a noisy Flush+Flush readout needs an RNG stream"
            )
        self.signal_miss_probability = signal_miss_probability
        self._rng = rng
        geometry = monitor.geometry
        profile = self.SET_WEIGHT_PROFILE
        self._miss_by_line: Dict[int, float] = {
            line: min(
                1.0,
                signal_miss_probability
                * profile[geometry.set_of(address) % len(profile)],
            )
            for line, address in zip(self._lines, self._addresses)
        }

    def reset(self, surface: ProbeSurface) -> None:
        surface.flush_lines(self._addresses)

    def mid_flush(self, surface: ProbeSurface) -> None:
        self.reset(surface)

    def observe(self, surface: ProbeSurface) -> FrozenSet[int]:
        # The flush is the probe: a long (== hit) flush reveals the
        # victim's touch and leaves the line reset in one step.
        return frozenset(compress(self._lines,
                                  surface.flush_lines(self._addresses)))

    def filter_observation(self, observed: FrozenSet[int]
                           ) -> FrozenSet[int]:
        if self.signal_miss_probability == 0.0 or not observed:
            return observed
        assert self._rng is not None  # enforced at construction
        return frozenset(
            line for line in sorted(observed)
            if self._rng.random() >= self._miss_by_line[line]
        )

    @property
    def signal_reliability(self) -> float:
        if not self._miss_by_line:
            return 1.0
        mean_miss = (sum(self._miss_by_line.values())
                     / len(self._miss_by_line))
        return 1.0 - mean_miss


def make_primitive(name: str, monitor: SboxMonitor, *,
                   signal_miss_probability: float = 0.0,
                   rng: Optional[random.Random] = None) -> ProbePrimitive:
    """Instantiate a probe primitive by config name.

    ``signal_miss_probability``/``rng`` configure the Flush+Flush
    readout noise and are ignored by the noise-free primitives.
    """
    if name == "flush_reload":
        return FlushReload(monitor)
    if name == "prime_probe":
        return PrimeProbe(monitor)
    if name == "flush_flush":
        return FlushFlush(monitor,
                          signal_miss_probability=signal_miss_probability,
                          rng=rng)
    raise ValueError(f"unknown probe strategy {name!r}")

"""Outside-in layer tracing for the end-to-end benchmark.

The tracer wraps the public boundary functions of each ``repro`` layer
from outside the program: class attributes for methods, the property
getters where the voting work happens, and the two helper names that
``repro.core.attack`` binds into its own namespace.  Nothing under
``src/`` knows about it.  Wrappers exist only between
:meth:`Tracer.install` and :meth:`Tracer.uninstall`, and only in the
process that calls them.

Each wrapper records one span per *outermost* entry into its layer: a
call from a layer into itself (``mid_flush`` calling ``reset``,
``decided`` calling ``is_viable``) opens no span, and its time stays
with the outer one.  Spans are aggregated in memory per
(layer, parent layer) into calls, total time and self time, where self
time is the span's duration minus its child spans'.  Wrappers never
touch a random number generator, so a traced attack makes exactly the
decisions, and spends exactly the encryptions, of an untraced one.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.attack as attack_module
from repro import TracedGift64
from repro.cache import SetAssociativeCache, TwoLevelHierarchy
from repro.channel import (
    FlushFlush,
    FlushReload,
    LossyChannel,
    ObservationChannel,
    PrimeProbe,
    SharedL2Transport,
    SingleLevelTransport,
)
from repro.core import (
    CandidateEliminator,
    GrinchAttack,
    PlaintextCrafter,
    VotingEliminator,
)
from repro.targets.gift import BitslicedGiftCipher

_PRIMITIVE = ("reset", "mid_flush", "observe", "filter_observation")
_TRANSPORT = ("victim_access", "access", "flush_line")

#: (layer, owner, attribute names) of every boundary function.  Owners
#: are classes, except ``repro.core.attack`` itself, whose module-level
#: names the attack loop looks up at call time.
BOUNDARIES: Tuple[Tuple[str, Any, Tuple[str, ...]], ...] = (
    ("core.attack", GrinchAttack,
     ("recover_master_key", "attack_first_round")),
    ("core.crafting", PlaintextCrafter, ("__init__", "craft")),
    ("core.target_bits", attack_module, ("set_target_bits",)),
    ("core.recover", attack_module, ("key_pairs_from_line",)),
    ("core.eliminate", CandidateEliminator, ("update", "update_batch")),
    ("core.voting", VotingEliminator,
     ("update", "update_batch", "is_viable", "confidence", "decided",
      "rejected", "resolved_line")),
    ("channel.observer", ObservationChannel,
     ("observe", "observe_batch", "known_pair")),
    ("channel.primitive", FlushReload, _PRIMITIVE),
    ("channel.primitive", FlushFlush, _PRIMITIVE),
    ("channel.primitive", PrimeProbe, _PRIMITIVE),
    ("channel.degradation", LossyChannel, ("drop_lines", "drop_lines_batch")),
    ("channel.transport", SingleLevelTransport, _TRANSPORT),
    ("channel.transport", SharedL2Transport, _TRANSPORT),
    ("cache.setassoc", SetAssociativeCache, ("access", "flush_line")),
    ("cache.multilevel", TwoLevelHierarchy, ("access", "flush_line")),
    ("targets", TracedGift64,
     ("sbox_indices_by_round", "encrypt_traced", "encrypt")),
    ("targets", BitslicedGiftCipher, ("sbox_indices_batch",)),
)

#: Every layer, outermost first (the order reports list them in).
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for layer, _, _ in BOUNDARIES
))

_MISSING = object()


def _owner_name(owner: Any) -> str:
    return getattr(owner, "__qualname__", None) or owner.__name__


def installed_wrappers() -> List[str]:
    """Boundary functions currently carrying a benchmark wrapper."""
    found = []
    for _, owner, names in BOUNDARIES:
        for name in names:
            value = getattr(owner, name)
            if isinstance(value, property):
                value = value.fget
            if hasattr(value, "__bench_layer__"):
                found.append(f"{_owner_name(owner)}.{name}")
    return found


class Tracer:
    """Span aggregation for one process; install around traced work."""

    def __init__(self) -> None:
        #: layer -> parent layer (None at the root) -> [calls, total_s,
        #: self_s]
        self.spans: Dict[str, Dict[Optional[str], List[float]]] = {
            layer: {} for layer in LAYERS
        }
        #: ``Owner.name`` -> every call, nested or not.
        self.functions: Dict[str, int] = {}
        #: Lines entering and leaving the loss model (for the drop rate).
        self.drops = [0, 0]
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Forget the aggregates (in place: wrappers hold references)."""
        for by_parent in self.spans.values():
            by_parent.clear()
        self.functions.clear()
        self.drops[0] = self.drops[1] = 0

    def rows(self) -> List[List[Any]]:
        """``[layer, parent, calls, total_ms, self_ms]`` per span group."""
        return [
            [layer, parent, calls, total * 1000.0, own * 1000.0]
            for layer, by_parent in self.spans.items()
            for parent, (calls, total, own) in by_parent.items()
        ]

    def install(self) -> None:
        """Wrap every boundary function."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer, owner, names in BOUNDARIES:
            for name in names:
                original = owner.__dict__.get(name, _MISSING)
                current = getattr(owner, name)
                label = f"{_owner_name(owner)}.{name}"
                if isinstance(current, property):
                    wrapped: Any = property(
                        self._wrap(layer, label, current.fget)
                    )
                else:
                    on_return = (_count_drops if name.startswith("drop_lines")
                                 else None)
                    wrapped = self._wrap(layer, label, current, on_return)
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        """Restore every boundary function installed by this tracer."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _wrap(self, layer: str, label: str, function: Callable,
              on_return: Optional[Callable] = None) -> Callable:
        # Hot path: the cache layers make ~10^5 wrapped calls per
        # attack, so everything the wrapper touches is a closure local.
        stack = self._stack
        by_parent = self.spans[layer]
        functions = self.functions
        drops = self.drops
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            functions[label] = functions.get(label, 0) + 1
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = None
                if stack:
                    caller = stack[-1]
                    caller[1] += elapsed
                    parent = caller[0]
                aggregate = by_parent.get(parent)
                if aggregate is None:
                    by_parent[parent] = [1, elapsed, elapsed - frame[1]]
                else:
                    aggregate[0] += 1
                    aggregate[1] += elapsed
                    aggregate[2] += elapsed - frame[1]
            if on_return is not None:
                on_return(drops, args, result)
            return result

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        wrapper.__bench_layer__ = layer  # type: ignore[attr-defined]
        return wrapper


def _count_drops(drops: List[int], args: Tuple[Any, ...],
                 result: Any) -> None:
    """Lines into and out of ``drop_lines``/``drop_lines_batch``."""
    observed = args[1]
    if isinstance(result, frozenset):
        drops[0] += len(observed)
        drops[1] += len(result)
    else:
        drops[0] += sum(len(lines) for lines in observed)
        drops[1] += sum(len(lines) for lines in result)

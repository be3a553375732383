"""Algorithm 2 of the GRINCH paper: crafted plaintext generation.

For a round-1 target, the crafted plaintext *is* the constrained
round-1 input: the four source segments are drawn from their valid-input
lists (forcing the four target bits after SubCells/PermBits), every
other segment is random — exactly Algorithm 2, extended to four pinned
segments per Section III-C.

For deeper targets (Step 5, "Update Plaintext Generation") the attacker
builds the desired constrained state the same way and then inverts the
earlier rounds using the round keys recovered so far; for GIFT:

    input_r = S⁻¹(P⁻¹(input_{r+1} XOR RK_r XOR C_r))

The inversion is the cipher target's
:meth:`~repro.targets.CipherTarget.bind_inversion` — each registered
cipher knows how its own rounds unwind (PRESENT, for instance, XORs
its key *before* the S-box layer and has no state-side constants).
A :class:`PlaintextCrafter` binds it once to its prior round keys, so
the key-dependent work (GIFT folds every round's key and constant mask
through P⁻¹) is paid per crafter, not per plaintext.

Crafting a plaintext is then one rejection-sampled draw per segment,
from the spec's draw table
(:attr:`~repro.core.target_bits.TargetSpec.draw_plan`, built once per
spec), plus the bound inversion.  The draws consume the attacker's RNG
exactly as ``rng.choice``/``rng.randrange(16)`` would, which keeps
every seeded attack (and the recorded trace corpus) unchanged.

A wrong guess for a round key shows up as a constant XOR error on the
achieved constrained state; errors outside the four pinned segments land
in positions that were random anyway, which is why hypothesis testing
only needs to enumerate the candidates of the four source segments.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from .target_bits import SegmentDraw, TargetSpec


def _draw_state(plan: Sequence[SegmentDraw], rng: random.Random) -> int:
    """Draw one state from a :attr:`TargetSpec.draw_plan`.

    Each segment takes ``getrandbits(k)`` until the draw is below
    ``n``: the rejection loop CPython's ``Random._randbelow`` runs for
    ``rng.choice(values)`` and ``rng.randrange(16)``, so the generator
    advances exactly as those calls would advance it.
    """
    getrandbits = rng.getrandbits
    state = 0
    for shift, values, count, bits in plan:
        draw = getrandbits(bits)
        while draw >= count:
            draw = getrandbits(bits)
        state |= values[draw] << shift
    return state


def build_target_round_input(spec: TargetSpec, rng: random.Random) -> int:
    """Draw one constrained target-round input for ``spec``.

    The pinned source segments take a random element of their
    valid-input list; the remaining segments take uniform random
    nibbles (Algorithm 2 lines 3-10).
    """
    return _draw_state(spec.draw_plan, rng)


class PlaintextCrafter:
    """Generates crafted plaintexts for one attack target.

    Parameters
    ----------
    spec:
        The target description from Algorithm 1.
    prior_round_keys:
        Keys of rounds ``1 .. t-1`` as known/hypothesised by the
        attacker (empty for a round-1 target), in the target's native
        round-key representation.  Kept as a tuple: the crafter binds
        its inversion to these keys at construction.
    rng:
        Attacker randomness for segment choices.
    """

    def __init__(self, spec: TargetSpec,
                 prior_round_keys: Sequence,
                 rng: random.Random) -> None:
        if len(prior_round_keys) != spec.round_index - 1:
            raise ValueError(
                f"round-{spec.round_index} target needs "
                f"{spec.round_index - 1} prior round keys, "
                f"got {len(prior_round_keys)}"
            )
        self.spec = spec
        self.prior_round_keys = tuple(prior_round_keys)
        self._rng = rng
        self._plan = spec.draw_plan
        self._invert = spec.target.bind_inversion(self.prior_round_keys)

    def craft(self) -> int:
        """Return one crafted plaintext."""
        return self._invert(_draw_state(self._plan, self._rng))

    def craft_many(self, count: int) -> List[int]:
        """Return ``count`` crafted plaintexts."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.craft() for _ in range(count)]

"""Step 3 of the GRINCH methodology: candidate elimination.

The crafted plaintexts guarantee the target segment touches the *same*
S-box line in every encryption; every other monitored line is touched
only with some probability per encryption.  Intersecting the observed
line sets therefore converges (monotonically) onto the target line.
An empty intersection is a *contradiction*: the premise "one line is
always present" was violated, which happens exactly when a hypothesis
about earlier-round key bits was wrong — the signal the multi-round
attack uses to prune hypotheses.

That premise also makes the intersection *unsound under false
negatives*: a single missed target observation (lossy channel,
co-runner eviction, probe jitter) empties the set and kills a correct
hypothesis.  :class:`~repro.core.voting.VotingEliminator` is the
lossy-channel replacement; at zero loss it reduces exactly to this
class's behaviour.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Set


class CandidateEliminator:
    """Monotone intersection of observed line sets over a fixed universe.

    The lossless decision core of the attack's per-hypothesis loop; it
    shares that loop's interface (:attr:`decided`, :meth:`rejects`,
    :attr:`progress`, :attr:`may_stall`, :attr:`confidence`) with
    :class:`~repro.core.voting.VotingEliminator`.
    """

    #: An accepted intersection is exact.
    confidence = 1.0

    def __init__(self, universe: FrozenSet[int]) -> None:
        if not universe:
            raise ValueError("candidate universe must not be empty")
        self.universe = universe
        self._candidates: Set[int] = set(universe)
        self.updates = 0

    @property
    def candidates(self) -> FrozenSet[int]:
        """Current surviving candidate lines."""
        return frozenset(self._candidates)

    @property
    def converged(self) -> bool:
        """Exactly one candidate line remains."""
        return len(self._candidates) == 1

    decided = converged

    @property
    def contradicted(self) -> bool:
        """No candidate survives — some assumption was wrong."""
        return not self._candidates

    @property
    def resolved_line(self) -> int:
        """The unique surviving line (only valid when converged)."""
        if not self.converged:
            raise RuntimeError(
                f"eliminator has {len(self._candidates)} candidates, not 1"
            )
        return next(iter(self._candidates))

    @property
    def progress(self) -> int:
        """Grows exactly when an update shrinks the candidate set."""
        return -len(self._candidates)

    @property
    def may_stall(self) -> bool:
        """Whether a stalled run may accept the surviving set (2-4
        lines, carried forward like the wide-line ambiguity of
        Section III-D)."""
        return len(self._candidates) <= 4

    def rejects(self, expected_line: Optional[int]) -> bool:
        """Whether the hypothesis is refuted: only an empty intersection
        refutes it (a predicted line is checked at acceptance)."""
        return not self._candidates

    def update(self, observed: Iterable[int]) -> FrozenSet[int]:
        """Intersect with one observation; return the surviving set."""
        self.updates += 1
        self._candidates &= set(observed)
        return self.candidates

    def update_batch(self,
                     observations: Iterable[Iterable[int]]
                     ) -> FrozenSet[int]:
        """Intersect with a whole window batch, in batch order.

        Equivalent to calling :meth:`update` once per observation —
        intersection is order-insensitive, but the ``updates`` counter
        still advances by the batch size so effort accounting matches
        the sequential path.  Returns the surviving set after the whole
        batch.  The attack loop feeds :meth:`update` window by window;
        this stays for the end-to-end benchmark's tracer and the
        batch-equivalence tests.
        """
        for observed in observations:
            self.update(observed)
        return self.candidates

    def reset(self) -> None:
        """Start over with the full universe."""
        self._candidates = set(self.universe)
        self.updates = 0

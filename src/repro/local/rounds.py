"""Explicit round accounting for orchestrated phases.

The peeling processes (Algorithms 1 and 3) and the gather-and-solve steps
(Algorithms 2 and 4) are executed centrally by this reproduction but have a
well-defined LOCAL round cost: one round per peeling iteration, and
``2 * diameter + O(1)`` rounds to gather a connected component at its
highest node and broadcast the computed solution back.  A
:class:`RoundLedger` records those charges phase by phase so that the total
round complexity of a transformed algorithm can be reported and compared
against the paper's bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RoundLedger:
    """A per-phase account of LOCAL rounds spent."""

    charges: dict[str, int] = field(default_factory=dict)

    def charge(self, phase: str, rounds: int) -> None:
        """Add ``rounds`` rounds to ``phase`` (phases accumulate)."""
        if rounds < 0:
            raise ValueError("cannot charge a negative number of rounds")
        self.charges[phase] = self.charges.get(phase, 0) + int(rounds)

    def charge_max(self, phase: str, rounds: int) -> None:
        """Record ``rounds`` for ``phase`` if it exceeds the current charge.

        Used for phases that run in parallel over many components: the
        phase costs the maximum over components, not the sum.
        """
        if rounds < 0:
            raise ValueError("cannot charge a negative number of rounds")
        self.charges[phase] = max(self.charges.get(phase, 0), int(rounds))

    @property
    def total(self) -> int:
        """Total rounds across all phases."""
        return sum(self.charges.values())

    def breakdown(self) -> dict[str, int]:
        """A copy of the per-phase charges."""
        return dict(self.charges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RoundLedger(total={self.total}, phases={self.charges})"

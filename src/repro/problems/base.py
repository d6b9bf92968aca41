"""Abstract interface for node-edge-checkable problems (Definition 6).

A problem is a triple ``Π = (Σ, N_Π, E_Π)``.  Because both the label set
and the constraint families may be infinite (the edge-colouring problem of
Section 5.1 uses all pairs of positive integers), constraints are
represented as membership predicates rather than explicit collections:

* :meth:`NodeEdgeCheckableProblem.node_config_ok` decides whether a label
  multiset belongs to ``N_Π^i`` (``i`` is the multiset's cardinality), and
* :meth:`NodeEdgeCheckableProblem.edge_config_ok` decides whether a label
  multiset belongs to ``E_Π^r`` for an edge of rank ``r``.

Both predicates decide a *multiset*, as Definition 6 does: the labels
come as an iterable in whatever order the caller gathered them, and a
predicate must give one verdict for every order of the same labels.  A
label outside the problem's alphabet, of a foreign type or unhashable,
fails the configuration; it does not raise.  The verifier and the list
constraints rely on this and never sort a configuration before a check.

Concrete problems additionally provide conversions between half-edge
labelings on a semi-graph (keyed by the plain pairs ``(node, edge)``) and
the classic graph-level solution objects (edge-colour maps, matchings,
independent sets, vertex-colour maps).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable

from repro.semigraph import HalfEdgeLabeling, SemiGraph

#: The dummy label used by the paper on half-edges of rank-1 edges for the
#: edge problems of Section 5 ("D" in the paper).
DUMMY = "D"


class NodeEdgeCheckableProblem(ABC):
    """A node-edge-checkable problem ``Π = (Σ, N_Π, E_Π)``."""

    #: Human-readable problem name.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # constraint predicates
    # ------------------------------------------------------------------
    @abstractmethod
    def node_config_ok(self, labels: Iterable[Any]) -> bool:
        """Whether the multiset ``labels`` is in ``N_Π^i`` for ``i = len(labels)``."""

    @abstractmethod
    def edge_config_ok(self, labels: Iterable[Any], rank: int) -> bool:
        """Whether the multiset ``labels`` is in ``E_Π^rank``."""

    # ------------------------------------------------------------------
    # classic-solution conversions (1-round transformations in the paper)
    # ------------------------------------------------------------------
    def to_classic(self, semigraph: SemiGraph, labeling: HalfEdgeLabeling) -> Any:
        """Convert a half-edge labeling to the classic solution object.

        Concrete problems override this; the base implementation signals
        that no conversion is available.
        """
        raise NotImplementedError(f"{self.name} does not define a classic conversion")

    def from_classic(self, semigraph: SemiGraph, classic: Any) -> HalfEdgeLabeling:
        """Convert a classic solution object to a half-edge labeling."""
        raise NotImplementedError(f"{self.name} does not define a classic conversion")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"

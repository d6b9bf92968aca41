"""Maximal matching in the node-edge-checkability formalism (Section 5.2).

Labels: ``M`` (this endpoint is matched through this edge), ``P`` (this
endpoint is matched through another edge), ``O`` (this endpoint is
unmatched), ``D`` (dummy, used on rank-1 edges).

* Node constraint: either exactly one incident half-edge is ``M`` and the
  rest are in ``{P, O, D}``, or every incident half-edge is in ``{O, D}``.
* Edge constraint: a rank-2 edge carries ``{M, M}`` (matched), ``{P, P}``
  (both endpoints matched elsewhere) or ``{P, O}``; a rank-1 edge carries
  ``{D}``; a rank-0 edge carries nothing.  The absence of ``{O, O}``
  enforces maximality.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.problems.base import DUMMY, NodeEdgeCheckableProblem
from repro.semigraph import HalfEdgeLabeling, SemiGraph

MATCHED = "M"
POINTER = "P"
UNMATCHED = "O"

_NODE_REST = {POINTER, UNMATCHED, DUMMY}
#: The rank-2 edge configurations {M, M}, {P, P} and {P, O}, in either
#: order.  Membership compares with ``==``, so a label of another type is
#: simply not allowed (sorting it next to a string would raise).
_RANK2_CONFIGS = (
    (MATCHED, MATCHED),
    (POINTER, POINTER),
    (POINTER, UNMATCHED),
    (UNMATCHED, POINTER),
)


class MaximalMatchingProblem(NodeEdgeCheckableProblem):
    """The maximal matching problem of Section 5.2."""

    name = "maximal-matching"

    def node_config_ok(self, labels: Iterable[Any]) -> bool:
        labels = tuple(labels)
        if any(lab not in (MATCHED, POINTER, UNMATCHED, DUMMY) for lab in labels):
            return False
        matched_count = sum(1 for lab in labels if lab == MATCHED)
        if matched_count == 1:
            return all(lab in _NODE_REST for lab in labels if lab != MATCHED)
        if matched_count == 0:
            return all(lab in (UNMATCHED, DUMMY) for lab in labels)
        return False

    def edge_config_ok(self, labels: Iterable[Any], rank: int) -> bool:
        labels = tuple(labels)
        if len(labels) != rank:
            return False
        if rank == 0:
            return True
        if rank == 1:
            return labels[0] == DUMMY
        return labels in _RANK2_CONFIGS

    # ------------------------------------------------------------------
    # classic conversions
    # ------------------------------------------------------------------
    def to_classic(self, semigraph: SemiGraph, labeling: HalfEdgeLabeling) -> set:
        """The matching: the set of rank-2 edge identifiers labeled ``{M, M}``.

        One pass over the edges; a missing label raises ``KeyError``.
        """
        labels = labeling.as_mapping()
        matching = set()
        for edge, endpoints in semigraph.edge_endpoints().items():
            if len(endpoints) == 2:
                u, v = endpoints
                if (labels[u, edge], labels[v, edge]) == (MATCHED, MATCHED):
                    matching.add(edge)
        return matching

    def from_classic(self, semigraph: SemiGraph, classic: set) -> HalfEdgeLabeling:
        """Lift a maximal matching (set of edge identifiers) to a labeling,
        in one pass over the edges."""
        edges = semigraph.edge_endpoints()
        matched_nodes = set()
        for edge in classic:
            matched_nodes.update(edges[edge])
        labels = {}
        for edge, endpoints in edges.items():
            if len(endpoints) == 2:
                matched = edge in classic
                for node in endpoints:
                    labels[node, edge] = (
                        MATCHED if matched
                        else POINTER if node in matched_nodes
                        else UNMATCHED
                    )
            elif endpoints:
                labels[endpoints[0], edge] = DUMMY
        return HalfEdgeLabeling(labels)

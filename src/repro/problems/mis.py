"""Maximal independent set (MIS) in the node-edge-checkability formalism.

The paper names MIS as one of the problems in the class ``P1`` covered by
Theorem 1 / Theorem 12 but does not spell out its encoding; we use the
standard encoding from the round-elimination literature, adapted to
semi-graphs so that rank-1 edges (edges whose other endpoint lies outside
the current sub-instance) never create unsatisfiable residual constraints:

* labels: ``M`` (the node is in the MIS), ``P`` (the node is not in the
  MIS and the other endpoint of this edge is in the MIS), ``O`` (the node
  is not in the MIS, no claim about the other endpoint);
* node constraint: either every incident half-edge is ``M``, or at least
  one incident half-edge is ``P`` and all are in ``{P, O}`` (a node with no
  incident half-edges is also valid — isolated nodes join the MIS during
  the classic conversion);
* edge constraint: rank-2 edges carry ``{M, P}``, ``{M, O}`` or ``{O, O}``
  (never ``{M, M}`` — independence — and ``P`` only opposite ``M`` —
  maximality); rank-1 edges carry ``{M}`` or ``{O}`` (``P`` is forbidden,
  so an algorithm running on a sub-semi-graph never relies on an unseen
  endpoint for its maximality); rank-0 edges carry nothing.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.problems.base import NodeEdgeCheckableProblem
from repro.semigraph import HalfEdgeLabeling, SemiGraph
from repro.semigraph.semigraph import HalfEdge

IN_MIS = "M"
POINTER = "P"
OUT = "O"

# A tuple, compared with ``==``: set membership would hash the labels, and
# an unhashable label must fail the check, not crash it.
_RANK2_CONFIGS = (
    (IN_MIS, POINTER),
    (POINTER, IN_MIS),
    (IN_MIS, OUT),
    (OUT, IN_MIS),
    (OUT, OUT),
)


class MaximalIndependentSetProblem(NodeEdgeCheckableProblem):
    """Maximal independent set as a node-edge-checkable problem."""

    name = "maximal-independent-set"

    def node_config_ok(self, labels: Iterable[Any]) -> bool:
        labels = tuple(labels)
        if any(lab not in (IN_MIS, POINTER, OUT) for lab in labels):
            return False
        if not labels:
            return True
        if all(lab == IN_MIS for lab in labels):
            return True
        return POINTER in labels and all(lab in (POINTER, OUT) for lab in labels)

    def edge_config_ok(self, labels: Iterable[Any], rank: int) -> bool:
        labels = tuple(labels)
        if len(labels) != rank:
            return False
        if rank == 0:
            return True
        if rank == 1:
            return labels[0] in (IN_MIS, OUT)
        return labels in _RANK2_CONFIGS

    # ------------------------------------------------------------------
    # classic conversions
    # ------------------------------------------------------------------
    def to_classic(self, semigraph: SemiGraph, labeling: HalfEdgeLabeling) -> set:
        """The independent set: nodes all of whose half-edges are ``M``.

        Nodes with no incident half-edges are included (an isolated node
        always belongs to every maximal independent set).
        """
        independent = set()
        for node in semigraph.nodes:
            if all(
                labeling[HalfEdge(node, edge)] == IN_MIS
                for edge in semigraph.incident_edges(node)
            ):
                independent.add(node)
        return independent

    def from_classic(self, semigraph: SemiGraph, classic: set) -> HalfEdgeLabeling:
        """Lift an MIS (set of nodes) of the underlying graph to a labeling,
        in one pass over the edges."""
        labels = {}
        for edge, endpoints in semigraph.edge_endpoints().items():
            if len(endpoints) == 2:
                u, v = endpoints
                u_in, v_in = u in classic, v in classic
                labels[HalfEdge(u, edge)] = IN_MIS if u_in else POINTER if v_in else OUT
                labels[HalfEdge(v, edge)] = IN_MIS if v_in else POINTER if u_in else OUT
            elif endpoints:
                (u,) = endpoints
                labels[HalfEdge(u, edge)] = IN_MIS if u in classic else OUT
        return HalfEdgeLabeling(labels)

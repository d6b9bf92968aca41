"""(edge-degree + 1)-edge colouring in the node-edge-checkability formalism.

This is the problem ``Π`` of Section 5.1 of the paper:

* labels are pairs ``(a, b)`` of positive integers ("degree part" ``a`` and
  "colour part" ``b``) plus the dummy label ``D``;
* the node constraint requires that, among the non-dummy labels incident on
  a node, every degree part is at most the number of non-dummy labels and
  all colour parts are pairwise distinct;
* the edge constraint requires that a rank-2 edge carries two pairs with
  the same colour part ``b`` and degree parts summing to at least ``b + 1``,
  a rank-1 edge carries the dummy label, and a rank-0 edge carries nothing.

A valid solution induces a proper edge colouring of the underlying graph in
which every edge ``e`` receives a colour of value at most
``edge-degree(e) + 1``; conversely any such colouring can be lifted to a
valid solution (both directions are the 1-round transformations described
in the paper).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Any, Iterable

from repro.problems.base import DUMMY, NodeEdgeCheckableProblem
from repro.semigraph import HalfEdgeLabeling, SemiGraph
from repro.semigraph.semigraph import HalfEdge


def is_pair_label(label: Any) -> bool:
    """Whether ``label`` is a well-formed ``(degree part, colour part)`` pair."""
    return (
        isinstance(label, tuple)
        and len(label) == 2
        and all(isinstance(x, int) and x >= 1 for x in label)
    )


class EdgeDegreePlusOneEdgeColoring(NodeEdgeCheckableProblem):
    """The (edge-degree + 1)-edge colouring problem of Section 5.1."""

    name = "(edge-degree+1)-edge-coloring"

    # ------------------------------------------------------------------
    # constraints
    # ------------------------------------------------------------------
    def node_config_ok(self, labels: Iterable[Any]) -> bool:
        labels = tuple(labels)
        pairs = [lab for lab in labels if lab != DUMMY]
        if not all(is_pair_label(lab) for lab in pairs):
            return False
        degree_parts = [a for a, _ in pairs]
        colour_parts = [b for _, b in pairs]
        if any(a > len(pairs) for a in degree_parts):
            return False
        return len(colour_parts) == len(set(colour_parts))

    def edge_config_ok(self, labels: Iterable[Any], rank: int) -> bool:
        labels = tuple(labels)
        if len(labels) != rank:
            return False
        if rank == 0:
            return True
        if rank == 1:
            return labels[0] == DUMMY
        first, second = labels
        if not (is_pair_label(first) and is_pair_label(second)):
            return False
        (a1, b1), (a2, b2) = first, second
        return b1 == b2 and a1 + a2 >= b1 + 1

    # ------------------------------------------------------------------
    # classic conversions
    # ------------------------------------------------------------------
    def to_classic(
        self, semigraph: SemiGraph, labeling: HalfEdgeLabeling
    ) -> dict[Any, int]:
        """Extract the edge colouring: edge identifier -> colour.

        Only rank-2 edges receive colours (rank-1 edges carry the dummy
        label and correspond to no edge of the underlying graph).
        """
        colouring: dict[Any, int] = {}
        for edge in semigraph.edges_of_rank(2):
            half_edges = semigraph.half_edges_of_edge(edge)
            labels = [labeling[h] for h in half_edges]
            if not all(is_pair_label(lab) for lab in labels):
                raise ValueError(f"edge {edge!r} does not carry pair labels: {labels!r}")
            colour_parts = {lab[1] for lab in labels}
            if len(colour_parts) != 1:
                raise ValueError(f"edge {edge!r} carries inconsistent colours: {labels!r}")
            colouring[edge] = labels[0][1]
        return colouring

    def from_classic(
        self, semigraph: SemiGraph, classic: dict[Any, int]
    ) -> HalfEdgeLabeling:
        """Lift an edge colouring (edge id -> colour) to a half-edge labeling.

        Degree parts are chosen as the endpoints' degrees, which always
        satisfies the constraint because a colour of value at most
        ``edge-degree(e) + 1`` obeys ``deg(u) + deg(v) >= colour + 1``.
        """
        edges = semigraph.edge_endpoints()
        rank2_degree = Counter(chain.from_iterable(
            endpoints for endpoints in edges.values() if len(endpoints) == 2
        ))
        labels = {}
        for edge, endpoints in edges.items():
            if len(endpoints) == 2:
                colour = classic[edge]
                for node in endpoints:
                    labels[HalfEdge(node, edge)] = (rank2_degree[node], colour)
            elif endpoints:
                labels[HalfEdge(endpoints[0], edge)] = DUMMY
        return HalfEdgeLabeling(labels)

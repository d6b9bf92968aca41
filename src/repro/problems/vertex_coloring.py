"""Vertex colouring problems in the node-edge-checkability formalism.

Two variants are provided:

* :class:`DegreePlusOneColoring` — the (deg+1)-list-style colouring in
  which every node must receive a colour of value at most its degree plus
  one;
* :class:`DeltaPlusOneColoring` — the classic (Δ+1)-colouring in which
  every node must receive a colour of value at most a globally fixed
  number of colours.

Encoding: the label on a half-edge ``(v, e)`` is the colour of ``v`` (a
positive integer).  The node constraint requires all incident half-edges of
a node to carry the same colour and bounds its value; the edge constraint
requires the two endpoints of a rank-2 edge to carry different colours.
Rank-1 edges may carry any colour (the colour of their single endpoint) and
rank-0 edges carry nothing.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.problems.base import NodeEdgeCheckableProblem
from repro.semigraph import HalfEdgeLabeling, SemiGraph
from repro.semigraph.semigraph import HalfEdge


def _is_colour(label: Any) -> bool:
    return isinstance(label, int) and label >= 1


class DegreePlusOneColoring(NodeEdgeCheckableProblem):
    """(deg+1)-vertex colouring: colour of a node is at most its degree + 1."""

    name = "(deg+1)-coloring"

    def _colour_bound(self, degree: int) -> int:
        return degree + 1

    def node_config_ok(self, labels: Iterable[Any]) -> bool:
        labels = tuple(labels)
        if not labels:
            return True
        if not all(_is_colour(lab) for lab in labels):
            return False
        if len(set(labels)) != 1:
            return False
        return labels[0] <= self._colour_bound(len(labels))

    def edge_config_ok(self, labels: Iterable[Any], rank: int) -> bool:
        labels = tuple(labels)
        if len(labels) != rank:
            return False
        if rank == 0:
            return True
        if not all(_is_colour(lab) for lab in labels):
            return False
        if rank == 1:
            return True
        return labels[0] != labels[1]

    # ------------------------------------------------------------------
    # classic conversions
    # ------------------------------------------------------------------
    def to_classic(
        self, semigraph: SemiGraph, labeling: HalfEdgeLabeling
    ) -> dict[Any, int]:
        """Extract the vertex colouring: node -> colour.

        Nodes with no incident half-edges receive colour 1.
        """
        colouring: dict[Any, int] = {}
        for node in semigraph.nodes:
            colours = {
                labeling[HalfEdge(node, edge)] for edge in semigraph.incident_edges(node)
            }
            if not colours:
                colouring[node] = 1
                continue
            if len(colours) != 1:
                raise ValueError(f"node {node!r} carries inconsistent colours: {colours!r}")
            colouring[node] = next(iter(colours))
        return colouring

    def from_classic(
        self, semigraph: SemiGraph, classic: dict[Any, int]
    ) -> HalfEdgeLabeling:
        """Lift a vertex colouring (node -> colour) to a half-edge labeling,
        in one pass over the edges."""
        return HalfEdgeLabeling({
            HalfEdge(node, edge): classic[node]
            for edge, endpoints in semigraph.edge_endpoints().items()
            for node in endpoints
        })


class DeltaPlusOneColoring(DegreePlusOneColoring):
    """(Δ+1)-vertex colouring with a global colour budget.

    Parameters
    ----------
    num_colours:
        The total number of allowed colours (``Δ + 1`` for the classical
        problem); colours are the integers ``1 .. num_colours``.
    """

    def __init__(self, num_colours: int) -> None:
        if num_colours < 1:
            raise ValueError("num_colours must be at least 1")
        self.num_colours = num_colours
        self.name = f"({num_colours})-coloring"

    def _colour_bound(self, degree: int) -> int:
        return self.num_colours

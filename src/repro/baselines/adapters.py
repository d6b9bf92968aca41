"""Adapters exposing the baselines through the transformation's interface.

The transformation (Theorems 12 and 15) consumes an algorithm ``A`` that
solves the problem ``Π`` *on semi-graphs* in ``O(f(Δ) + log* n)`` rounds,
where ``Δ`` is the maximum degree of the underlying graph.  A
:class:`TrulyLocalAlgorithm` bundles such an algorithm with the problem it
solves and its declared complexity function ``f`` (used to pick the
cut-off ``k = g(n)``).

Every adapter hands the semi-graph's own adjacency
(:meth:`~repro.semigraph.SemiGraph.adjacency`, the underlying graph as
neighbour sets) to a genuinely distributed baseline from this package,
which indexes it as a :class:`~repro.local.Network` (or its line graph,
for edge colouring and matching), and lifts the result to half-edge
labels with the problem's ``from_classic`` conversion (the 1-round
transformations described in Section 5 of the paper); rank-1 half-edges
receive the labels the respective encoding prescribes for them.  No
networkx graph is built on the way.
"""

from __future__ import annotations

from repro.baselines.coloring import deg_plus_one_coloring
from repro.baselines.edge_coloring import _edge_coloring
from repro.baselines.matching import _maximal_matching
from repro.baselines.mis import maximal_independent_set
from repro.core.complexity import quadratic
from repro.core.interfaces import OracleCostModel, TrulyLocalAlgorithm
from repro.problems import (
    DegreePlusOneColoring,
    EdgeDegreePlusOneEdgeColoring,
    MaximalIndependentSetProblem,
    MaximalMatchingProblem,
)
from repro.semigraph import HalfEdgeLabeling, SemiGraph

__all__ = [
    "TrulyLocalAlgorithm",
    "OracleCostModel",
    "DegPlusOneColoringAlgorithm",
    "MISAlgorithm",
    "EdgeColoringAlgorithm",
    "MaximalMatchingAlgorithm",
]


def _edge_ids(semigraph: SemiGraph, parallel_ok: bool) -> dict:
    """Each rank-2 edge's identifier under both orderings of its endpoints.

    A line-graph node is named by one of the two
    (:func:`repro.baselines.edge_coloring.line_graph`), so this maps the
    edge baselines' results back to the semi-graph's edges.  Parallel
    rank-2 edges share one line-graph node: with ``parallel_ok`` the first
    of them takes its result, otherwise they raise ``ValueError``.
    """
    edge_ids: dict = {}
    for edge, endpoints in semigraph.edge_endpoints().items():
        if len(endpoints) == 2:
            u, v = endpoints
            if (u, v) in edge_ids:
                if parallel_ok:
                    continue
                raise ValueError(
                    f"edges {edge_ids[u, v]!r} and {edge!r} are parallel: the "
                    "line graph has one node for both, so no colouring of it "
                    "colours both"
                )
            edge_ids[u, v] = edge_ids[v, u] = edge
    return edge_ids


class DegPlusOneColoringAlgorithm(TrulyLocalAlgorithm):
    """(deg+1)-vertex colouring via Linial + colour-class sweep: ``f(Δ) = O(Δ²)``."""

    name = "deg+1-coloring (Linial + sweep)"

    def __init__(self) -> None:
        self.problem = DegreePlusOneColoring()
        self.complexity = quadratic(shift=3.0)

    def solve_semigraph(self, semigraph: SemiGraph) -> tuple[HalfEdgeLabeling, int]:
        run = deg_plus_one_coloring(semigraph.adjacency())
        labeling = self.problem.from_classic(semigraph, run.colours)
        return labeling, run.rounds


class MISAlgorithm(TrulyLocalAlgorithm):
    """Maximal independent set via colour-class sweep: ``f(Δ) = O(Δ²)``."""

    name = "MIS (Linial + sweep)"

    def __init__(self) -> None:
        self.problem = MaximalIndependentSetProblem()
        self.complexity = quadratic(shift=3.0)

    def solve_semigraph(self, semigraph: SemiGraph) -> tuple[HalfEdgeLabeling, int]:
        run = maximal_independent_set(semigraph.adjacency())
        labeling = self.problem.from_classic(semigraph, run.independent_set)
        return labeling, run.rounds


class EdgeColoringAlgorithm(TrulyLocalAlgorithm):
    """(edge-degree+1)-edge colouring via the line graph: ``f(Δ) = O(Δ²)``."""

    name = "(edge-degree+1)-edge-coloring (line graph Linial + sweep)"

    def __init__(self) -> None:
        self.problem = EdgeDegreePlusOneEdgeColoring()
        self.complexity = quadratic(scale=4.0, shift=3.0)

    def solve_semigraph(self, semigraph: SemiGraph) -> tuple[HalfEdgeLabeling, int]:
        edge_ids = _edge_ids(semigraph, parallel_ok=False)
        run = _edge_coloring(semigraph.adjacency())
        classic = {edge_ids[name]: colour for name, colour in run.colours.items()}
        labeling = self.problem.from_classic(semigraph, classic)
        return labeling, run.rounds


class MaximalMatchingAlgorithm(TrulyLocalAlgorithm):
    """Maximal matching via edge-colour-class sweep: ``f(Δ) = O(Δ²)``."""

    name = "maximal matching (edge colouring + sweep)"

    def __init__(self) -> None:
        self.problem = MaximalMatchingProblem()
        self.complexity = quadratic(scale=4.0, shift=3.0)

    def solve_semigraph(self, semigraph: SemiGraph) -> tuple[HalfEdgeLabeling, int]:
        edge_ids = _edge_ids(semigraph, parallel_ok=True)
        run = _maximal_matching(semigraph.adjacency())
        classic = {edge_ids[name] for name in run.matching}
        labeling = self.problem.from_classic(semigraph, classic)
        return labeling, run.rounds

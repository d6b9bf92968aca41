"""Maximal matching in ``O(Δ² + log* n)`` rounds.

Pipeline: (edge-degree+1)-edge colouring, then one round per edge-colour
class in which the edges of the class join the matching if both endpoints
are still unmatched.  A colour class is a matching by itself, so
simultaneous joins never conflict; processing every class makes the result
maximal.

The per-class sweep is a trivially local procedure (an edge only inspects
its endpoints); it is executed as a sequential loop with one charged round
per colour class, mirroring how the edge colouring's line-graph rounds are
charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import networkx as nx

from repro.baselines.edge_coloring import edge_degree_plus_one_coloring


@dataclass
class MatchingRun:
    """Outcome of a truly local maximal matching run."""

    matching: set  # canonical edge pairs
    rounds: int
    edge_coloring_rounds: int
    sweep_rounds: int


def maximal_matching(graph: nx.Graph) -> MatchingRun:
    """Compute a maximal matching of ``graph`` in ``O(Δ² + log* n)`` rounds."""
    if graph.number_of_edges() == 0:
        return MatchingRun(set(), 0, 0, 0)
    coloring = edge_degree_plus_one_coloring(graph)
    num_classes = max(coloring.colours.values(), default=1)

    matched_nodes: set[Hashable] = set()
    matching: set = set()
    for colour_class in range(1, num_classes + 1):
        for edge, colour in coloring.colours.items():
            if colour != colour_class:
                continue
            u, v = edge
            if u not in matched_nodes and v not in matched_nodes:
                matching.add(edge)
                matched_nodes.update((u, v))

    return MatchingRun(
        matching=matching,
        rounds=coloring.rounds + num_classes,
        edge_coloring_rounds=coloring.rounds,
        sweep_rounds=num_classes,
    )

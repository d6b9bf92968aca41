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

from repro.baselines.edge_coloring import _edge_coloring
from repro.semigraph.builders import edge_id_for
from repro.semigraph.semigraph import Adjacency


@dataclass
class MatchingRun:
    """Outcome of a truly local maximal matching run."""

    matching: set  # edge pairs
    rounds: int
    edge_coloring_rounds: int
    sweep_rounds: int


def maximal_matching(graph: nx.Graph) -> MatchingRun:
    """Compute a maximal matching of ``graph`` in ``O(Δ² + log* n)`` rounds.

    The matching holds canonical edge pairs (see
    :func:`repro.semigraph.builders.edge_id_for`).
    """
    run = _maximal_matching(dict(graph.adjacency()))
    run.matching = {edge_id_for(u, v) for u, v in run.matching}
    return run


def _maximal_matching(adjacency: Adjacency) -> MatchingRun:
    """:func:`maximal_matching` on an adjacency mapping, with edges named
    as :func:`repro.baselines.edge_coloring.line_graph` names them."""
    coloring = _edge_coloring(adjacency)
    if not coloring.colours:
        return MatchingRun(set(), 0, 0, 0)
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

"""(edge-degree+1)-edge colouring in ``O(Δ² + log* n)`` rounds.

The algorithm runs the (deg+1)-vertex colouring of
:mod:`repro.baselines.coloring` on the line graph: a line-graph node is an
edge of the original graph, its line-graph degree equals the edge's
edge-degree, so the resulting colours are at most ``edge-degree + 1``.

One synchronous round on the line graph is simulated by two rounds on the
original graph (the two endpoints of an edge relay the messages of its
adjacent edges), so the reported round count is twice the line-graph round
count — the constant-factor overhead the paper's model permits.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.baselines.coloring import deg_plus_one_coloring
from repro.semigraph.builders import edge_id_for


@dataclass
class EdgeColoringRun:
    """Outcome of a truly local edge colouring run."""

    colours: dict  # canonical edge pair -> colour
    rounds: int
    line_graph_rounds: int


def edge_degree_plus_one_coloring(graph: nx.Graph) -> EdgeColoringRun:
    """Properly colour the edges with colours at most ``edge-degree + 1``.

    Returns colours keyed by the canonical edge pair (see
    :func:`repro.semigraph.builders.edge_id_for`).
    """
    if graph.number_of_edges() == 0:
        return EdgeColoringRun({}, 0, 0)
    run = deg_plus_one_coloring(nx.line_graph(graph))
    colours = {edge_id_for(u, v): colour for (u, v), colour in run.colours.items()}
    return EdgeColoringRun(
        colours=colours,
        rounds=2 * run.rounds,
        line_graph_rounds=run.rounds,
    )

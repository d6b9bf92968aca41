"""(edge-degree+1)-edge colouring in ``O(Δ² + log* n)`` rounds.

The algorithm runs the (deg+1)-vertex colouring of
:mod:`repro.baselines.coloring` on the line graph: a line-graph node is an
edge of the original graph, its line-graph degree equals the edge's
edge-degree, so the resulting colours are at most ``edge-degree + 1``.

One synchronous round on the line graph is simulated by two rounds on the
original graph (the two endpoints of an edge relay the messages of its
adjacent edges), so the reported round count is twice the line-graph round
count — the constant-factor overhead the paper's model permits.

The line graph
--------------
:func:`line_graph` builds the line graph straight from an adjacency
mapping (a networkx graph's own neighbour dicts, or
:meth:`repro.semigraph.SemiGraph.adjacency`) as another adjacency mapping,
which :class:`~repro.local.Network` indexes.  It names each edge exactly
as :func:`networkx.line_graph` does: the endpoint pair, ordered by
position in the adjacency's key order.  The network numbers its nodes by
the ``repr`` of these names (:func:`~repro.local.network.default_identifiers`),
so the same names give the same identifiers, hence the same colours, round
counts and records as a networkx line graph.  The naming rule lives only
in :func:`line_graph`; callers map names back through a lookup holding
both orderings of each edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.baselines.coloring import deg_plus_one_coloring
from repro.semigraph.builders import edge_id_for
from repro.semigraph.semigraph import Adjacency


@dataclass
class EdgeColoringRun:
    """Outcome of a truly local edge colouring run."""

    colours: dict  # edge pair -> colour
    rounds: int
    line_graph_rounds: int


def line_graph(adjacency: Adjacency) -> dict[tuple, set[tuple]]:
    """The line graph of an undirected simple graph, as an adjacency mapping.

    Each edge ``{u, v}`` becomes the node ``(u, v)``, with ``u`` before
    ``v`` in ``adjacency``'s key order (the name :func:`networkx.line_graph`
    gives it), adjacent to every other edge that shares an endpoint.
    """
    position = {node: i for i, node in enumerate(adjacency)}
    incident: dict = {node: [] for node in adjacency}
    edges = []
    for u, neighbors in adjacency.items():
        first = position[u]
        for v in neighbors:
            if first < position[v]:
                edge = (u, v)
                edges.append(edge)
                incident[u].append(edge)
                incident[v].append(edge)
    line = {}
    for edge in edges:
        row = set(incident[edge[0]])
        row.update(incident[edge[1]])
        row.remove(edge)
        line[edge] = row
    return line


def edge_degree_plus_one_coloring(graph: nx.Graph) -> EdgeColoringRun:
    """Properly colour the edges with colours at most ``edge-degree + 1``.

    Returns colours keyed by the canonical edge pair (see
    :func:`repro.semigraph.builders.edge_id_for`).
    """
    run = _edge_coloring(dict(graph.adjacency()))
    run.colours = {edge_id_for(u, v): colour for (u, v), colour in run.colours.items()}
    return run


def _edge_coloring(adjacency: Adjacency) -> EdgeColoringRun:
    """:func:`edge_degree_plus_one_coloring` on an adjacency mapping, with
    colours keyed by the edges' :func:`line_graph` names."""
    line = line_graph(adjacency)
    if not line:
        return EdgeColoringRun({}, 0, 0)
    run = deg_plus_one_coloring(line)
    return EdgeColoringRun(
        colours=run.colours,
        rounds=2 * run.rounds,
        line_graph_rounds=run.rounds,
    )

"""Constructors for semi-graphs.

The transformation of the paper repeatedly builds sub-semi-graphs of the
input: the semi-graph ``T_C`` induced by the compressed nodes keeps every
edge with at least one compressed endpoint (those with exactly one drop to
rank 1), while the semi-graph ``G[E_2]`` induced by the typical edges keeps
only those edges with both endpoints.  This module provides those
constructions plus conversion from :mod:`networkx` graphs.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import networkx as nx

from repro.semigraph.semigraph import EdgeId, NodeId, SemiGraph


def edge_id_for(u: Hashable, v: Hashable) -> tuple:
    """Canonical edge identifier for the graph edge ``{u, v}``: the pair
    ordered by ``repr`` (``(u, v)`` on a tie)."""
    return (u, v) if repr(u) <= repr(v) else (v, u)


def semigraph_from_graph(graph: nx.Graph) -> SemiGraph:
    """Interpret a standard graph as a semi-graph (every edge has rank 2).

    Edge identifiers are the canonical sorted pairs produced by
    :func:`edge_id_for`, so sub-semi-graph constructions on the same graph
    share identifiers and labelings can be merged across them.
    """
    edges: dict[EdgeId, tuple] = {}
    for u, v in graph.edges():
        # The one check an ``nx.Graph`` does not make for us.
        if u == v:
            raise ValueError("self-loops are not allowed in a semi-graph")
        edges[edge_id_for(u, v)] = (u, v)
    return SemiGraph._from_checked(set(graph.nodes()), edges)


def restrict_to_nodes(
    semigraph: SemiGraph,
    nodes: Iterable[NodeId],
    keep_boundary_edges: bool = True,
) -> SemiGraph:
    """Sub-semi-graph on a node subset.

    With ``keep_boundary_edges=True`` this is the construction of the
    semi-graph ``T_C`` in the proof of Theorem 12: the node set is
    ``nodes``, the edge set contains every edge of ``semigraph`` with at
    least one endpoint in ``nodes``, and edges lose the endpoints outside
    ``nodes`` (dropping their rank accordingly).

    With ``keep_boundary_edges=False`` only edges with *all* endpoints in
    ``nodes`` are kept (ranks are preserved) — the ordinary induced
    sub-semi-graph ``G[P]``.

    The kept edges are the parent's, already checked, so the result is
    built without :meth:`SemiGraph.add_edge`'s per-edge checks.
    """
    node_set = set(nodes)
    unknown = node_set - semigraph.nodes
    if unknown:
        raise ValueError(f"nodes not in semi-graph: {sorted(unknown, key=repr)!r}")
    edges: dict[EdgeId, tuple] = {}
    is_inside = node_set.__contains__
    for edge_id, endpoints in semigraph.edge_endpoints().items():
        inside = tuple(filter(is_inside, endpoints))
        if keep_boundary_edges:
            if inside:
                edges[edge_id] = inside
        elif len(inside) == len(endpoints) and endpoints:
            edges[edge_id] = endpoints
    return SemiGraph._from_checked(node_set, edges)


def restrict_to_edges(semigraph: SemiGraph, edges: Iterable[EdgeId]) -> SemiGraph:
    """Sub-semi-graph induced by an edge subset (the paper's ``G[Q]``).

    The node set consists of every endpoint of a selected edge; ranks are
    preserved.  The edges are the parent's, already checked, so the result
    is built without :meth:`SemiGraph.add_edge`'s per-edge checks.
    """
    edge_set = set(edges)
    unknown = edge_set - semigraph.edges
    if unknown:
        raise ValueError(f"edges not in semi-graph: {sorted(unknown, key=repr)!r}")
    parent = semigraph.edge_endpoints()
    kept = {edge_id: parent[edge_id] for edge_id in edge_set}
    nodes: set[NodeId] = set()
    for endpoints in kept.values():
        nodes.update(endpoints)
    return SemiGraph._from_checked(nodes, kept)

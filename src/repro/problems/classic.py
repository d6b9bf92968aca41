"""Verifiers for the classic (graph-level) formulations of the problems.

These operate directly on :mod:`networkx` graphs and the natural solution
objects (colour maps, matchings, independent sets) and are used by the
test-suite and the experiment harness to check end-to-end outputs of the
transformation independently of the half-edge formalism.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import networkx as nx


def _is_colour(colour: object) -> bool:
    """A palette colour: an integer of at least 1, as in the formal problems."""
    return isinstance(colour, int) and colour >= 1


def is_proper_vertex_coloring(graph: nx.Graph, colours: Mapping[Hashable, int]) -> bool:
    """Every node coloured, adjacent nodes differ."""
    if any(node not in colours for node in graph.nodes()):
        return False
    return all(colours[u] != colours[v] for u, v in graph.edges())


def is_deg_plus_one_coloring(graph: nx.Graph, colours: Mapping[Hashable, int]) -> bool:
    """Proper colouring in which each node's colour is in ``1 .. degree + 1``."""
    if not is_proper_vertex_coloring(graph, colours):
        return False
    return all(
        _is_colour(colours[v]) and colours[v] <= graph.degree(v) + 1
        for v in graph.nodes()
    )


def is_delta_plus_one_coloring(graph: nx.Graph, colours: Mapping[Hashable, int]) -> bool:
    """Proper colouring using colours from ``1 .. Δ + 1``."""
    if not is_proper_vertex_coloring(graph, colours):
        return False
    max_degree = max((d for _, d in graph.degree()), default=0)
    return all(
        _is_colour(colours[v]) and colours[v] <= max_degree + 1
        for v in graph.nodes()
    )


def edge_degree(graph: nx.Graph, edge: tuple) -> int:
    """Number of edges adjacent to ``edge`` (sharing an endpoint)."""
    u, v = edge
    return graph.degree(u) + graph.degree(v) - 2


def _is_proper_normalised(graph: nx.Graph, normalised: Mapping[tuple, int]) -> bool:
    """Properness check on an already-normalised complete edge-colour map."""
    for node, adjacency in graph.adj.items():
        seen: set = set()
        for neighbor in adjacency:
            colour = normalised[_edge_key(node, neighbor)]
            if colour in seen:
                return False
            seen.add(colour)
    return True


def is_proper_edge_coloring(graph: nx.Graph, colours: Mapping[tuple, int]) -> bool:
    """Every edge coloured, adjacent edges differ.

    Edge keys may be given in either endpoint order.
    """
    normalised = _normalise_edge_map(graph, colours)
    if normalised is None:
        return False
    return _is_proper_normalised(graph, normalised)


def is_edge_degree_plus_one_coloring(
    graph: nx.Graph, colours: Mapping[tuple, int]
) -> bool:
    """Proper edge colouring with each edge's colour in ``1 .. edge-degree + 1``."""
    normalised = _normalise_edge_map(graph, colours)
    if normalised is None:
        return False
    if not _is_proper_normalised(graph, normalised):
        return False
    # One degree map instead of two graph.degree() calls per edge.
    degrees = dict(graph.degree())
    for u, v in graph.edges():
        colour = normalised[_edge_key(u, v)]
        if not (_is_colour(colour) and colour <= degrees[u] + degrees[v] - 1):
            return False
    return True


def is_two_delta_minus_one_edge_coloring(
    graph: nx.Graph, colours: Mapping[tuple, int]
) -> bool:
    """Proper edge colouring using colours from ``1 .. 2Δ - 1``."""
    normalised = _normalise_edge_map(graph, colours)
    if normalised is None:
        return False
    if not _is_proper_normalised(graph, normalised):
        return False
    max_degree = max((d for _, d in graph.degree()), default=0)
    budget = max(1, 2 * max_degree - 1)
    return all(_is_colour(c) and c <= budget for c in normalised.values())


def is_matching(graph: nx.Graph, matching: Iterable[tuple]) -> bool:
    """The edge set is a matching of the graph."""
    seen_nodes: set = set()
    for edge in matching:
        u, v = edge
        if not graph.has_edge(u, v):
            return False
        if u in seen_nodes or v in seen_nodes:
            return False
        seen_nodes.update((u, v))
    return True


def is_maximal_matching(graph: nx.Graph, matching: Iterable[tuple]) -> bool:
    """The edge set is a matching and no edge can be added."""
    matching = list(matching)
    if not is_matching(graph, matching):
        return False
    matched_nodes: set = set()
    for u, v in matching:
        matched_nodes.update((u, v))
    return all(u in matched_nodes or v in matched_nodes for u, v in graph.edges())


def is_independent_set(graph: nx.Graph, nodes: Iterable[Hashable]) -> bool:
    """No two selected nodes are adjacent."""
    selected = set(nodes)
    if not selected <= set(graph.nodes()):
        return False
    return all(not (u in selected and v in selected) for u, v in graph.edges())


def is_maximal_independent_set(graph: nx.Graph, nodes: Iterable[Hashable]) -> bool:
    """Independent set to which no node can be added."""
    selected = set(nodes)
    if not is_independent_set(graph, selected):
        return False
    for node in graph.nodes():
        if node in selected:
            continue
        if not any(nbr in selected for nbr in graph.neighbors(node)):
            return False
    return True


def _edge_key(u: Hashable, v: Hashable) -> tuple:
    a, b = sorted((u, v), key=repr)
    return (a, b)


def _normalise_edge_map(
    graph: nx.Graph, colours: Mapping[tuple, int]
) -> dict[tuple, int] | None:
    """Map arbitrary edge keys to canonical sorted keys; None if incomplete."""
    normalised: dict[tuple, int] = {}
    for edge, colour in colours.items():
        u, v = edge
        normalised[_edge_key(u, v)] = colour
    for u, v in graph.edges():
        if _edge_key(u, v) not in normalised:
            return None
    return normalised

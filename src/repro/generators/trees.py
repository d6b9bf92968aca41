"""Tree generators.

All generators return :class:`networkx.Graph` objects with integer nodes
``0 .. n-1`` and are deterministic for a fixed seed.
"""

from __future__ import annotations

import random

import networkx as nx


def path_graph(n: int) -> nx.Graph:
    """A path on ``n`` nodes."""
    return nx.path_graph(n)


def star_graph(n: int) -> nx.Graph:
    """A star with one centre and ``n - 1`` leaves."""
    if n <= 0:
        return nx.Graph()
    return nx.star_graph(n - 1)


def binary_tree(n: int) -> nx.Graph:
    """The first ``n`` nodes of the complete binary tree (heap numbering)."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for child in range(1, n):
        graph.add_edge(child, (child - 1) // 2)
    return graph


def balanced_regular_tree(degree: int, depth: int) -> nx.Graph:
    """A balanced tree whose every non-leaf node has degree ``degree``.

    This is the paper's "regular balanced tree" lower-bound instance: the
    root has ``degree`` children, every other internal node has
    ``degree - 1`` children, and all leaves are at distance ``depth`` from
    the root.
    """
    if degree < 2:
        raise ValueError("the degree of a regular balanced tree must be at least 2")
    graph = nx.Graph()
    graph.add_node(0)
    next_node = 1
    frontier = [0]
    for level in range(depth):
        new_frontier = []
        for parent in frontier:
            children = degree if level == 0 else degree - 1
            for _ in range(children):
                graph.add_edge(parent, next_node)
                new_frontier.append(next_node)
                next_node += 1
        frontier = new_frontier
    return graph


def caterpillar(spine_length: int, legs_per_node: int) -> nx.Graph:
    """A caterpillar: a path spine with ``legs_per_node`` leaves per spine node."""
    graph = nx.path_graph(spine_length)
    next_node = spine_length
    for spine_node in range(spine_length):
        for _ in range(legs_per_node):
            graph.add_edge(spine_node, next_node)
            next_node += 1
    return graph


def spider(num_legs: int, leg_length: int) -> nx.Graph:
    """A spider: ``num_legs`` paths of length ``leg_length`` sharing one endpoint."""
    graph = nx.Graph()
    graph.add_node(0)
    next_node = 1
    for _ in range(num_legs):
        previous = 0
        for _ in range(leg_length):
            graph.add_edge(previous, next_node)
            previous = next_node
            next_node += 1
    return graph


def broom(handle_length: int, bristles: int) -> nx.Graph:
    """A broom: a path of length ``handle_length`` ending in a star of ``bristles`` leaves."""
    graph = nx.path_graph(handle_length)
    centre = handle_length - 1 if handle_length > 0 else 0
    if handle_length == 0:
        graph.add_node(0)
    next_node = max(handle_length, 1)
    for _ in range(bristles):
        graph.add_edge(centre, next_node)
        next_node += 1
    return graph


def bfs_forest_parents(forest: nx.Graph) -> dict:
    """Parent pointers rooting every component of ``forest`` at its
    smallest node (``None`` for roots).

    The canonical input of :func:`repro.baselines.color_forest_three`; on a
    tree the pointers are independent of the traversal order, so any BFS
    yields the same dict.  One traversal: nodes are visited in sorted
    order and a BFS starts at each node not yet reached, which is the
    smallest node of its component.
    """
    parents: dict = {}
    adj = forest.adj
    for root in sorted(forest):
        if root in parents:
            continue
        parents[root] = None
        frontier = [root]
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in adj[node]:
                    if neighbor not in parents:
                        parents[neighbor] = node
                        next_frontier.append(neighbor)
            frontier = next_frontier
    return parents


def _prufer_leaves(sequence: list[int], n: int) -> list[int]:
    """The leaf end of each edge of the tree on ``0 .. n-1`` with Prüfer
    code ``sequence``: edge ``k`` joins ``leaves[k]`` to ``sequence[k]``,
    and the last edge joins ``leaves[-1]`` to ``n - 1``, in the order
    :func:`networkx.from_prufer_sequence` adds them.

    The linear-time decoding of Wang, Wang & Wu (2009), as networkx
    implements it: ``u`` is the smallest leaf left; joining it to the next
    code entry ``v`` makes ``v`` the next leaf when ``v`` drops to degree
    one below the scan position, and otherwise the scan moves up to the
    next leaf.  Node ``n - 1`` is never the smallest leaf while three or
    more nodes remain, so it ends the last edge.
    """
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    index = u = degree.index(1)
    leaves = []
    for v in sequence:
        leaves.append(u)
        degree[v] -= 1
        if v < index and degree[v] == 1:
            u = v
        else:
            index += 1
            while degree[index] != 1:
                index += 1
            u = index
    leaves.append(u)
    return leaves


def random_tree(n: int, seed: int = 0) -> nx.Graph:
    """A uniformly random labelled tree on ``n`` nodes (via a Prüfer sequence).

    Equal to ``nx.from_prufer_sequence`` of the same sequence in node
    order, every node's neighbour order and ``edges()`` order; the graph
    is filled by two bulk insertions.
    """
    graph = nx.Graph()
    if n <= 0:
        return graph
    graph.add_nodes_from(range(n))
    if n == 1:
        return graph
    rng = random.Random(seed)
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    # Zipping two int lists hands networkx one short-lived tuple at a
    # time instead of n tuples the cyclic garbage collector must track.
    graph.add_edges_from(zip(_prufer_leaves(sequence, n), [*sequence, n - 1]))
    return graph

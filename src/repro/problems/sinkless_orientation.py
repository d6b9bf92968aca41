"""Sinkless orientation in the node-edge-checkability formalism.

Sinkless orientation is one of the two natural problems the paper's
introduction cites as having a known non-trivial tight bound (Θ(log n)
deterministically, [GS17, CKP19]).  It is included here as an additional
worked example of the formalism and as a test subject for the verifier and
list machinery; it is *not* covered by the paper's transformation (it is
neither in P1 nor in P2 — its sequential greedy can get stuck), and the
test-suite documents that fact.

Encoding: the label of a half-edge ``(v, e)`` is ``OUT`` if the edge ``e``
is oriented away from ``v`` and ``IN`` otherwise.

* Edge constraint: a rank-2 edge carries ``{OUT, IN}`` (each edge has one
  direction); a rank-1 edge carries either label; rank-0 edges carry
  nothing.
* Node constraint: a node of degree at least ``min_degree`` (3 by default,
  the standard setting) must have at least one ``OUT`` half-edge — no such
  node is a sink.  Lower-degree nodes are unconstrained.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Mapping

import networkx as nx

from repro.problems.base import NodeEdgeCheckableProblem
from repro.semigraph import HalfEdgeLabeling, SemiGraph

OUT = "OUT"
IN = "IN"


class SinklessOrientationProblem(NodeEdgeCheckableProblem):
    """Sinkless orientation: every high-degree node has an outgoing edge."""

    name = "sinkless-orientation"

    def __init__(self, min_degree: int = 3) -> None:
        if min_degree < 1:
            raise ValueError("min_degree must be at least 1")
        self.min_degree = min_degree

    def node_config_ok(self, labels: Iterable[Any]) -> bool:
        labels = tuple(labels)
        if any(lab not in (OUT, IN) for lab in labels):
            return False
        if len(labels) < self.min_degree:
            return True
        return OUT in labels

    def edge_config_ok(self, labels: Iterable[Any], rank: int) -> bool:
        labels = tuple(labels)
        if len(labels) != rank:
            return False
        if rank == 0:
            return True
        if any(lab not in (OUT, IN) for lab in labels):
            return False
        if rank == 1:
            return True
        return sorted(labels) == [IN, OUT]

    # ------------------------------------------------------------------
    # classic conversions
    # ------------------------------------------------------------------
    def to_classic(
        self, semigraph: SemiGraph, labeling: HalfEdgeLabeling
    ) -> dict[Any, Hashable]:
        """The orientation: edge identifier -> the endpoint the edge points *away from*.

        One pass over the edges; a missing label raises ``KeyError``.
        """
        labels = labeling.as_mapping()
        orientation: dict[Any, Hashable] = {}
        for edge, endpoints in semigraph.edge_endpoints().items():
            if len(endpoints) == 2:
                for node in endpoints:
                    if labels[node, edge] == OUT:
                        orientation[edge] = node
        return orientation

    def from_classic(
        self, semigraph: SemiGraph, classic: Mapping[Any, Hashable]
    ) -> HalfEdgeLabeling:
        """Lift an orientation (edge -> tail endpoint) to a half-edge labeling.

        Rank-1 edges are labelled ``OUT`` (they can always be oriented away
        from their single endpoint, which never hurts).
        """
        labeling = HalfEdgeLabeling()
        for edge in semigraph.edges:
            rank = semigraph.rank(edge)
            if rank == 1:
                (node,) = semigraph.endpoints(edge)
                labeling.assign((node, edge), OUT)
            elif rank == 2:
                tail = classic[edge]
                for node in semigraph.endpoints(edge):
                    labeling.assign((node, edge), OUT if node == tail else IN)
        return labeling


def is_sinkless_orientation(
    graph: nx.Graph, orientation: Mapping[tuple, Hashable], min_degree: int = 3
) -> bool:
    """Classic verifier: ``orientation`` maps each edge to its tail endpoint.

    Every edge must be oriented (with a tail that is one of its endpoints)
    and every node of degree at least ``min_degree`` must be the tail of at
    least one incident edge.
    """
    tails: dict[Hashable, int] = {node: 0 for node in graph.nodes()}
    seen = set()
    for edge, tail in orientation.items():
        u, v = edge
        if not graph.has_edge(u, v) or tail not in (u, v):
            return False
        key = frozenset((u, v))
        if key in seen:
            return False
        seen.add(key)
        tails[tail] += 1
    if len(seen) != graph.number_of_edges():
        return False
    return all(
        tails[node] >= 1 for node in graph.nodes() if graph.degree(node) >= min_degree
    )


def greedy_sinkless_orientation(graph: nx.Graph, min_degree: int = 3) -> dict:
    """A centralised sinkless orientation used as a test oracle.

    Orient the edges along an Euler-style walk of each 2-edge-connected
    part; for simplicity (and because the test instances are small) this
    implementation orients the edges of a DFS forest away from the root and
    non-tree edges towards ancestors, which leaves no sink among nodes of
    degree ≥ 3 in graphs where every such node has a child or a back-edge.
    On trees, leaves' edges are oriented towards the leaf so that internal
    nodes keep an outgoing edge.
    """
    orientation: dict = {}
    for component in nx.connected_components(graph):
        subgraph = graph.subgraph(component)
        root = next(iter(sorted(component, key=repr)))
        tree_edges = list(nx.dfs_edges(subgraph, root))
        in_tree = {frozenset(e) for e in tree_edges}
        depth = {root: 0}
        for parent, child in tree_edges:
            depth[child] = depth[parent] + 1
        for parent, child in tree_edges:
            # Point tree edges away from the root: the parent is the tail,
            # so every node with a DFS child has an outgoing edge.
            orientation[(parent, child)] = parent
        for u, v in subgraph.edges():
            if frozenset((u, v)) in in_tree:
                continue
            # Non-tree edges point away from the deeper endpoint, which is
            # the one that may lack a DFS child of its own.
            tail = u if depth[u] >= depth[v] else v
            orientation[(u, v)] = tail
    return orientation

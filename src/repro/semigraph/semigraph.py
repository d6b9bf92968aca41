"""The semi-graph data structure (Definition 4 of the paper).

A semi-graph consists of

* a set of *nodes*,
* a set of *edges*, each incident on 0, 1 or 2 nodes (its *rank*), and
* the induced set of *half-edges*: pairs ``(node, edge)`` for every
  incidence.

A standard graph is the special case in which every edge has rank 2.
Semi-graphs arise in the paper when a problem has been partially solved:
the unsolved part of the instance keeps edges whose other endpoint has
already been handled, and those edges drop to rank 1 (or 0).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Collection, Hashable, Iterable, Iterator, Mapping, NamedTuple

import networkx as nx

NodeId = Hashable
EdgeId = Hashable
#: Each node's distinct neighbours in an undirected graph.
Adjacency = Mapping[NodeId, Collection[NodeId]]


class HalfEdge(NamedTuple):
    """An incidence between a node and an edge of a semi-graph.

    A tuple, so it hashes, compares and orders in C: ``hash(HalfEdge(v, e))
    == hash((v, e))`` and the repr is ``HalfEdge(node=v, edge=e)``.

    It also *equals* the plain pair ``(v, e)``.  No mapping or set may
    therefore key both half-edges and plain pairs, and none does:
    labelings and their searches key half-edges only, ``NodeView.outside``
    is keyed by edge identifiers and ``EdgeView.outside`` by node
    identifiers (a grid's node identifiers are pairs themselves).  Readers
    of a labeling may look a half-edge up by its plain pair.
    """

    node: NodeId
    edge: EdgeId


class SemiGraph:
    """A graph whose edges may have 0, 1 or 2 endpoints.

    Parameters
    ----------
    nodes:
        Iterable of hashable node identifiers.
    edges:
        Mapping from edge identifier to a tuple of endpoint nodes.  The
        tuple may have length 0, 1 or 2; every endpoint must be a node of
        the semi-graph.  Edges with two identical endpoints (self-loops)
        are rejected, matching the paper's simple-graph setting.
    """

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        edges: Mapping[EdgeId, tuple] | None = None,
    ) -> None:
        self._nodes: set[NodeId] = set(nodes)
        self._edges: dict[EdgeId, tuple] = {}
        self._incident: dict[NodeId, set[EdgeId]] = {v: set() for v in self._nodes}
        if edges:
            for edge_id, endpoints in edges.items():
                self.add_edge(edge_id, endpoints)

    @classmethod
    def _from_checked(cls, nodes: set, edges: dict[EdgeId, tuple]) -> "SemiGraph":
        """A semi-graph that takes ``nodes`` and ``edges`` over as they are.

        The caller vouches for what :meth:`add_edge` checks: every endpoint
        tuple has at most two distinct endpoints, all in ``nodes``.  The
        incidence sets are built once, in ``edges`` order.
        """
        semigraph = cls.__new__(cls)
        semigraph._nodes = nodes
        semigraph._edges = edges
        incident: dict[NodeId, set[EdgeId]] = {v: set() for v in nodes}
        for edge_id, endpoints in edges.items():
            for v in endpoints:
                incident[v].add(edge_id)
        semigraph._incident = incident
        return semigraph

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Add an isolated node (a no-op if the node already exists)."""
        if node not in self._nodes:
            self._nodes.add(node)
            self._incident[node] = set()

    def add_edge(self, edge_id: EdgeId, endpoints: Iterable[NodeId]) -> None:
        """Add an edge with the given endpoints (0, 1 or 2 of them)."""
        endpoints = tuple(endpoints)
        if edge_id in self._edges:
            raise ValueError(f"duplicate edge identifier {edge_id!r}")
        if len(endpoints) > 2:
            raise ValueError("an edge of a semi-graph has at most 2 endpoints")
        if len(endpoints) == 2 and endpoints[0] == endpoints[1]:
            raise ValueError("self-loops are not allowed in a semi-graph")
        for v in endpoints:
            if v not in self._nodes:
                raise ValueError(f"endpoint {v!r} is not a node of the semi-graph")
        self._edges[edge_id] = endpoints
        for v in endpoints:
            self._incident[v].add(edge_id)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> frozenset:
        """The node set ``V_semi(S)``."""
        return frozenset(self._nodes)

    @property
    def edges(self) -> frozenset:
        """The edge identifiers ``E_semi(S)``."""
        return frozenset(self._edges)

    def endpoints(self, edge_id: EdgeId) -> tuple:
        """The endpoints of an edge, as a tuple of length 0, 1 or 2."""
        return self._edges[edge_id]

    def edge_endpoints(self) -> Mapping[EdgeId, tuple]:
        """Every edge's endpoints, as a read-only view of the edge index."""
        return MappingProxyType(self._edges)

    def rank(self, edge_id: EdgeId) -> int:
        """The rank (number of endpoints) of an edge."""
        return len(self._edges[edge_id])

    def degree(self, node: NodeId) -> int:
        """The number of half-edges incident on ``node``."""
        return len(self._incident[node])

    def incident_edges(self, node: NodeId) -> frozenset:
        """The edges incident on ``node``."""
        return frozenset(self._incident[node])

    def half_edges(self) -> Iterator[HalfEdge]:
        """Iterate over all half-edges ``H(S)``."""
        for edge_id, endpoints in self._edges.items():
            for v in endpoints:
                yield HalfEdge(v, edge_id)

    def half_edges_of_node(self, node: NodeId) -> list[HalfEdge]:
        """All half-edges incident on ``node``, sorted by edge ``repr``."""
        return [HalfEdge(node, e) for e in sorted(self._incident[node], key=repr)]

    def half_edges_of_edge(self, edge_id: EdgeId) -> list[HalfEdge]:
        """All half-edges incident on ``edge_id`` (one per endpoint)."""
        return [HalfEdge(v, edge_id) for v in self._edges[edge_id]]

    def other_endpoint(self, edge_id: EdgeId, node: NodeId) -> NodeId | None:
        """The endpoint of a rank-2 edge other than ``node`` (``None`` otherwise)."""
        endpoints = self._edges[edge_id]
        if len(endpoints) != 2:
            return None
        if endpoints[0] == node:
            return endpoints[1]
        if endpoints[1] == node:
            return endpoints[0]
        raise ValueError(f"{node!r} is not an endpoint of edge {edge_id!r}")

    def num_nodes(self) -> int:
        """The number of nodes."""
        return len(self._nodes)

    def num_edges(self) -> int:
        """The number of edges (of any rank)."""
        return len(self._edges)

    def edges_of_rank(self, rank: int) -> list[EdgeId]:
        """All edge identifiers of the given rank."""
        return [e for e, endpoints in self._edges.items() if len(endpoints) == rank]

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------
    def neighbors(self, node: NodeId) -> set[NodeId]:
        """Neighbours of ``node`` in the underlying graph."""
        result: set[NodeId] = set()
        for e in self._incident[node]:
            other = self.other_endpoint(e, node)
            if other is not None:
                result.add(other)
        return result

    def underlying_graph(self) -> nx.Graph:
        """The underlying graph: rank-2 edges between the semi-graph's nodes.

        Parallel rank-2 edges collapse to a single graph edge, matching the
        paper's definition of the underlying graph.  The pipelines read
        :meth:`adjacency` instead; this networkx form serves as an oracle.
        """
        graph = nx.Graph()
        graph.add_nodes_from(self._nodes)
        for edge_id, endpoints in self._edges.items():
            if len(endpoints) == 2:
                graph.add_edge(endpoints[0], endpoints[1], edge_id=edge_id)
        return graph

    def adjacency(self) -> dict[NodeId, set[NodeId]]:
        """Neighbour sets of the underlying graph, keyed in node iteration order.

        The key order is :meth:`underlying_graph`'s node order, and
        parallel rank-2 edges collapse as they do there, so a
        :class:`~repro.local.Network` built on either is the same network.
        A fresh mapping per call.
        """
        adjacency: dict[NodeId, set[NodeId]] = {v: set() for v in self._nodes}
        for endpoints in self._edges.values():
            if len(endpoints) == 2:
                u, v = endpoints
                adjacency[u].add(v)
                adjacency[v].add(u)
        return adjacency

    def underlying_degree(self) -> int:
        """The maximum degree of the underlying graph (0 for an empty graph)."""
        return max(map(len, self.adjacency().values()), default=0)

    def max_degree(self) -> int:
        """Maximum number of incident half-edges over all nodes."""
        if not self._nodes:
            return 0
        return max(self.degree(v) for v in self._nodes)

    def connected_components(self) -> list[set]:
        """Connected components of the underlying graph.

        Nodes joined by rank-2 edges are in the same component; isolated
        nodes form singleton components.  Rank-0/1 edges do not connect
        anything.
        """
        return [set(c) for c in _components(self.adjacency())]

    def component_diameters(self) -> list[int]:
        """The diameter of every connected component of the underlying graph.

        One entry per component, in :meth:`connected_components` order; an
        isolated node has diameter 0.
        """
        return component_diameters(self.adjacency())

    def is_connected(self) -> bool:
        """Whether the underlying graph is connected (the empty one is)."""
        return len(self.connected_components()) <= 1

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ranks = {r: len(self.edges_of_rank(r)) for r in (0, 1, 2)}
        return (
            f"SemiGraph(nodes={len(self._nodes)}, edges={len(self._edges)}, "
            f"ranks={ranks})"
        )

    def copy(self) -> "SemiGraph":
        """A deep-enough copy (node/edge structure; identifiers are shared)."""
        return SemiGraph._from_checked(set(self._nodes), dict(self._edges))


# ----------------------------------------------------------------------
# components and diameters of an undirected adjacency
# ----------------------------------------------------------------------
def component_diameters(adjacency: Adjacency) -> list[int]:
    """The exact diameter of every connected component of ``adjacency``.

    Components come in the order of their first node in ``adjacency``,
    the order :func:`networkx.connected_components` yields them.  A tree
    component (edges = nodes − 1) takes two BFS sweeps, which is exact on
    a tree and O(c); a cyclic one takes the bounding search of
    ``nx.diameter(usebounds=True)`` (Takes & Kosters' BoundingDiameters)
    on a plain graph of the component.
    """
    diameters = []
    for component in _components(adjacency):
        edges = sum(len(adjacency[v]) for v in component) // 2
        if edges == len(component) - 1:
            # component[-1] is a farthest node from component[0]; on a tree
            # its eccentricity is the diameter.
            diameters.append(_sweep(adjacency, component[-1])[1])
        else:
            graph = nx.from_dict_of_lists({v: adjacency[v] for v in component})
            diameters.append(nx.diameter(graph, usebounds=True))
    return diameters


def _components(adjacency: Adjacency) -> Iterator[list]:
    """Each connected component's nodes, in BFS order from its first node."""
    labeled: set[NodeId] = set()
    for node in adjacency:
        if node not in labeled:
            component, _ = _sweep(adjacency, node)
            labeled.update(component)
            yield component


def _sweep(adjacency: Adjacency, source: NodeId) -> tuple[list, int]:
    """Breadth-first search from ``source``.

    Returns the nodes it reaches in BFS order, so the last one is a
    farthest one, and the eccentricity of ``source``.
    """
    seen = {source}
    order = [source]
    frontier = [source]
    eccentricity = -1
    while frontier:
        eccentricity += 1
        next_frontier = []
        for u in frontier:
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    next_frontier.append(w)
        order += next_frontier
        frontier = next_frontier
    return order, eccentricity

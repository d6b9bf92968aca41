"""The Decomposition process for graphs of bounded arboricity (Algorithm 3).

The process peels a graph of arboricity at most ``a`` with the modified
compress operation ``Compress(G, b, k)``: a node is marked when its degree
is at most ``k`` and at most ``b`` of its neighbours have degree greater
than ``k``.  With ``b = 2a`` and ``k ≥ 5a`` the number of remaining nodes
shrinks by a factor ``k / 4a`` per iteration, so all nodes are marked
within ``⌈10·log_{k/a} n⌉ + 1`` iterations (Lemma 13).

While it peels, the process splits the edges into

* **typical** edges, which induce a graph of maximum degree at most ``k``
  (Lemma 14), and
* **atypical** edges — edges whose higher endpoint still had degree greater
  than ``k`` when the lower endpoint was marked; every node has at most
  ``b`` of them towards higher neighbours.

The peel, its compress rule and the lower-to-higher order on nodes are
shared with Algorithm 1 (:mod:`repro.decomposition.peel`).

The atypical edges are partitioned into ``b`` forests ``F_i`` (each node
keeps at most one higher neighbour per forest), each forest is vertex
3-coloured in ``O(log* n)`` rounds with the Cole–Vishkin subroutine, and
splitting each forest by the colour of the higher endpoint yields the star
collections ``F_{i,j}`` whose connected components are stars centred at the
higher endpoint — ready to be solved in a constant number of rounds each by
Algorithm 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import networkx as nx

from repro.decomposition.peel import LayerOrder, Peel
from repro.local.network import default_identifiers

#: Rounds charged per peeling iteration (the compress test inspects the
#: 2-hop degree profile, i.e. two rounds).
ROUNDS_PER_ITERATION = 2
#: Constant rounds charged for the local edge classification and the
#: colouring of atypical edges at their lower endpoints.
CLASSIFICATION_ROUNDS = 2


@dataclass
class ArboricityDecomposition(LayerOrder):
    """The output of Algorithm 3 plus the derived edge structures."""

    graph: nx.Graph
    arboricity: int
    k: int
    b: int
    layers: list[frozenset]
    node_iteration: dict[Hashable, int]
    identifiers: dict[Hashable, int]
    iterations: int
    typical_edges: set
    atypical_edges: set
    forests: list[set]
    forest_colorings: list[dict]
    star_collections: dict[tuple[int, int], set]
    forest_coloring_rounds: int
    rounds: int
    theoretical_iteration_bound: int

    # ------------------------------------------------------------------
    # the total order on nodes (iteration first, identifier second)
    # ------------------------------------------------------------------
    def layer_rank(self, node: Hashable) -> int:
        """The iteration that marked ``node``."""
        return self.node_iteration[node]

    # ------------------------------------------------------------------
    # Lemma 13 / Lemma 14 as checkable properties
    # ------------------------------------------------------------------
    def typical_subgraph(self) -> nx.Graph:
        """The graph induced by typical edges (Lemma 14 subject)."""
        graph = nx.Graph()
        graph.add_nodes_from(self.graph.nodes())
        graph.add_edges_from(self.typical_edges)
        return graph

    def typical_max_degree(self) -> int:
        """Maximum degree of the typical-edge subgraph (must be at most ``k``)."""
        graph = self.typical_subgraph()
        return max((d for _, d in graph.degree()), default=0)

    def max_atypical_per_lower_endpoint(self) -> int:
        """Maximum number of atypical edges sharing a lower endpoint (≤ b)."""
        counts: dict[Hashable, int] = {}
        for u, v in self.atypical_edges:
            lower = self.lower_endpoint(u, v)
            counts[lower] = counts.get(lower, 0) + 1
        return max(counts.values(), default=0)

    def star_components_are_stars(self) -> bool:
        """Whether every component of every ``G[F_{i,j}]`` is a star.

        A star is a tree of diameter at most 2 in which at most one node
        has degree greater than 1.
        """
        for edges in self.star_collections.values():
            subgraph = nx.Graph()
            subgraph.add_edges_from(edges)
            for component in nx.connected_components(subgraph):
                component_graph = subgraph.subgraph(component)
                centers = [
                    node for node in component_graph if component_graph.degree(node) > 1
                ]
                if len(centers) > 1:
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArboricityDecomposition(n={self.graph.number_of_nodes()}, "
            f"a={self.arboricity}, k={self.k}, b={self.b}, "
            f"iterations={self.iterations}, typical={len(self.typical_edges)}, "
            f"atypical={len(self.atypical_edges)})"
        )


def arboricity_decomposition(
    graph: nx.Graph,
    arboricity: int,
    k: int,
    b: int | None = None,
) -> ArboricityDecomposition:
    """Run Algorithm 3 on ``graph`` and derive the edge structures of Section 4.

    Parameters
    ----------
    graph:
        The input graph; its arboricity should be at most ``arboricity``.
    arboricity:
        The arboricity bound ``a`` known to all nodes.
    k:
        The degree threshold of the compress operation.  Lemma 13 requires
        ``k ≥ 5a``; smaller values are accepted (for ablations) but may
        need more iterations.
    b:
        The high-degree-neighbour budget; defaults to ``2a`` as in Lemma 13.
    """
    if arboricity < 1:
        raise ValueError("the arboricity bound must be at least 1")
    if b is None:
        b = 2 * arboricity
    if b <= arboricity:
        raise ValueError("Algorithm 3 requires b > a")
    if k < 2:
        raise ValueError("the degree threshold k must be at least 2")

    identifiers = default_identifiers(graph.nodes())

    n = graph.number_of_nodes()
    if n == 0:
        return ArboricityDecomposition(
            graph, arboricity, k, b, [], {}, {}, 0, set(), set(), [], [], {}, 0, 0, 1
        )

    ratio = max(k / arboricity, 1.25)
    theoretical_bound = math.ceil(10 * math.log(max(n, 2)) / math.log(ratio)) + 1
    safety_cap = max(4 * theoretical_bound + 8, 64)

    peel = Peel(graph)
    node_of = peel.csr.nodes
    layers: list[frozenset] = []
    node_iteration: dict[Hashable, int] = {}
    iteration = 0

    while peel.alive_indices:
        iteration += 1
        if iteration > safety_cap:
            raise RuntimeError(
                f"Algorithm 3 did not terminate within {safety_cap} iterations "
                f"(n={n}, a={arboricity}, b={b}, k={k})"
            )
        marked = peel.compress(k, b)
        if not marked:
            raise RuntimeError(
                "Algorithm 3 made no progress; the arboricity bound or the "
                "parameters (b, k) are inconsistent with the input graph"
            )
        for i in marked:
            node_iteration[node_of[i]] = iteration
        layers.append(frozenset(node_of[i] for i in marked))

    forests, forest_colorings, star_collections, coloring_rounds = _build_forests(
        peel, identifiers, b
    )
    # An edge is atypical when its higher endpoint still had degree above k
    # as its lower endpoint was marked: exactly the forests' edges.
    atypical = set().union(*forests)
    return ArboricityDecomposition(
        graph=graph,
        arboricity=arboricity,
        k=k,
        b=b,
        layers=layers,
        node_iteration=node_iteration,
        identifiers=identifiers,
        iterations=iteration,
        typical_edges={edge for edge in graph.edges() if edge not in atypical},
        atypical_edges=atypical,
        forests=forests,
        forest_colorings=forest_colorings,
        star_collections=star_collections,
        forest_coloring_rounds=coloring_rounds,
        rounds=ROUNDS_PER_ITERATION * iteration + CLASSIFICATION_ROUNDS + coloring_rounds,
        theoretical_iteration_bound=theoretical_bound,
    )


def _build_forests(
    peel: Peel, identifiers: dict[Hashable, int], b: int
) -> tuple[list[set], list[dict], dict[tuple[int, int], set], int]:
    """Partition the atypical edges into forests and star collections.

    The atypical edges are the ones the peel kept: each marked node's
    neighbours still above ``k``.  Each lower endpoint colours its
    atypical edges with distinct colours from ``{1, ..., b}`` in the order
    of the higher endpoint's identifier; the edges of colour ``i`` form
    the forest ``F_i`` (every node has at most one higher neighbour in
    it).  Each forest is rooted towards higher endpoints and vertex
    3-coloured with the Cole–Vishkin subroutine; splitting by the colour
    of the higher endpoint yields the star collections ``F_{i,j}``.

    Returns the forests, their colourings, the star collections and the
    most rounds one colouring took.  Each edge is written the way
    ``graph.edges()`` yields it: from its endpoint first in node order,
    which is CSR index order.
    """
    # Imported lazily to keep the decomposition package importable without
    # triggering the baselines package (which depends on repro.core).
    from repro.baselines.forest_coloring import color_forest_three

    node_of = peel.csr.nodes
    # parents[i]: each lower endpoint's (higher endpoint, edge) in F_{i+1}.
    parents: list[dict] = [{} for _ in range(b)]
    for i, higher in peel.above_k.items():
        if len(higher) > b:
            raise RuntimeError(
                f"node {node_of[i]!r} has {len(higher)} atypical edges, more than "
                f"b={b}; the compress operation guarantees at most b"
            )
        for index, j in enumerate(sorted(higher, key=lambda j: identifiers[node_of[j]])):
            edge = (node_of[i], node_of[j]) if i < j else (node_of[j], node_of[i])
            parents[index][node_of[i]] = (node_of[j], edge)

    colorings: list[dict] = []
    star_collections: dict[tuple[int, int], set] = {}
    max_coloring_rounds = 0
    for index, forest in enumerate(parents):
        if not forest:
            colorings.append({})
            continue
        forest_graph = nx.Graph()
        forest_graph.add_edges_from(edge for _, edge in forest.values())
        colours, rounds = color_forest_three(
            forest_graph,
            {lower: higher for lower, (higher, _) in forest.items()},
            identifiers={node: identifiers[node] for node in forest_graph.nodes()},
        )
        max_coloring_rounds = max(max_coloring_rounds, rounds)
        colorings.append(colours)
        for higher, edge in forest.values():
            star_collections.setdefault((index + 1, colours[higher]), set()).add(edge)

    forests = [{edge for _, edge in forest.values()} for forest in parents]
    return forests, colorings, star_collections, max_coloring_rounds

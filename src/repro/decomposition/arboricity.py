"""The Decomposition process for graphs of bounded arboricity (Algorithm 3).

The process peels a graph of arboricity at most ``a`` with the modified
compress operation ``Compress(G, b, k)``: a node is marked when its degree
is at most ``k`` and at most ``b`` of its neighbours have degree greater
than ``k``.  With ``b = 2a`` and ``k ≥ 5a`` the number of remaining nodes
shrinks by a factor ``k / 4a`` per iteration, so all nodes are marked
within ``⌈10·log_{k/a} n⌉ + 1`` iterations (Lemma 13).

From the resulting layer order the edges are split into

* **typical** edges, which induce a graph of maximum degree at most ``k``
  (Lemma 14), and
* **atypical** edges — edges whose higher endpoint still had degree greater
  than ``k`` when the lower endpoint was marked; every node has at most
  ``b`` of them towards higher neighbours.

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
from dataclasses import dataclass, field
from typing import Hashable

import networkx as nx

from repro.local.csr import CSRAdjacency
from repro.local.network import default_identifiers
from repro.semigraph.builders import edge_id_for

#: Rounds charged per peeling iteration (the compress test inspects the
#: 2-hop degree profile, i.e. two rounds).
ROUNDS_PER_ITERATION = 2
#: Constant rounds charged for the local edge classification and the
#: colouring of atypical edges at their lower endpoints.
CLASSIFICATION_ROUNDS = 2


@dataclass
class ArboricityDecomposition:
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
    degree_snapshots: list[dict] = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------
    # the total order on nodes
    # ------------------------------------------------------------------
    def order_key(self, node: Hashable) -> tuple[int, int]:
        """Sort key realising the lower-to-higher total order on nodes."""
        return (self.node_iteration[node], self.identifiers[node])

    def is_higher(self, u: Hashable, v: Hashable) -> bool:
        """Whether ``u`` is higher than ``v``."""
        return self.order_key(u) > self.order_key(v)

    def lower_endpoint(self, u: Hashable, v: Hashable) -> Hashable:
        """The lower endpoint of the edge ``{u, v}``."""
        return v if self.is_higher(u, v) else u

    def higher_endpoint(self, u: Hashable, v: Hashable) -> Hashable:
        """The higher endpoint of the edge ``{u, v}``."""
        return u if self.is_higher(u, v) else v

    # ------------------------------------------------------------------
    # Lemma 13 / Lemma 14 as checkable properties
    # ------------------------------------------------------------------
    def theoretical_layer_bound(self) -> int:
        """The Lemma 13 bound ``⌈10·log_{k/a} n⌉ + 1`` on the number of iterations."""
        return self.theoretical_iteration_bound

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
    strict_iteration_bound: bool = False,
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
    strict_iteration_bound:
        When true, raise if the peeling needs more iterations than the
        Lemma 13 bound.
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
            graph, arboricity, k, b, [], {}, {}, 0, set(), set(), [], [], {}, 0, 0, 1, []
        )

    ratio = max(k / arboricity, 1.25)
    theoretical_bound = math.ceil(10 * math.log(max(n, 2)) / math.log(ratio)) + 1
    safety_cap = max(4 * theoretical_bound + 8, 64)

    # Index the topology once into a CSR layout; the peeling loop then
    # runs entirely on int indices and flat arrays instead of re-hashing
    # node objects through dict-of-set adjacencies every iteration.
    csr = CSRAdjacency.from_graph(graph)

    node_of = csr.nodes
    offsets, targets = csr.offsets, csr.targets
    remaining = csr.degrees()
    alive = [True] * n
    alive_indices = list(range(n))

    layers: list[frozenset] = []
    node_iteration: dict[Hashable, int] = {}
    degree_snapshots: list[dict] = []
    iteration = 0

    while alive_indices:
        iteration += 1
        if iteration > safety_cap:
            raise RuntimeError(
                f"Algorithm 3 did not terminate within {safety_cap} iterations "
                f"(n={n}, a={arboricity}, b={b}, k={k})"
            )
        if strict_iteration_bound and iteration > theoretical_bound:
            raise RuntimeError(
                f"Algorithm 3 exceeded the Lemma 13 bound of {theoretical_bound} "
                f"iterations (n={n}, a={arboricity}, b={b}, k={k})"
            )
        degree_snapshots.append({node_of[i]: remaining[i] for i in alive_indices})
        marked_indices = []
        for i in alive_indices:
            if remaining[i] > k:
                continue
            high_neighbors = 0
            for j in targets[offsets[i] : offsets[i + 1]]:
                if alive[j] and remaining[j] > k:
                    high_neighbors += 1
                    if high_neighbors > b:
                        break
            if high_neighbors <= b:
                marked_indices.append(i)
        if not marked_indices:
            raise RuntimeError(
                "Algorithm 3 made no progress; the arboricity bound or the "
                "parameters (b, k) are inconsistent with the input graph"
            )
        for i in marked_indices:
            node_iteration[node_of[i]] = iteration
        layers.append(frozenset(node_of[i] for i in marked_indices))
        for i in marked_indices:
            alive[i] = False
        for i in marked_indices:
            for j in targets[offsets[i] : offsets[i + 1]]:
                if alive[j]:
                    remaining[j] -= 1
            remaining[i] = 0
        alive_indices = [i for i in alive_indices if alive[i]]

    decomposition = ArboricityDecomposition(
        graph=graph,
        arboricity=arboricity,
        k=k,
        b=b,
        layers=layers,
        node_iteration=node_iteration,
        identifiers=dict(identifiers),
        iterations=iteration,
        typical_edges=set(),
        atypical_edges=set(),
        forests=[],
        forest_colorings=[],
        star_collections={},
        forest_coloring_rounds=0,
        rounds=0,
        theoretical_iteration_bound=theoretical_bound,
        degree_snapshots=degree_snapshots,
    )
    _classify_edges(decomposition)
    _build_forests(decomposition)
    decomposition.rounds = (
        ROUNDS_PER_ITERATION * decomposition.iterations
        + CLASSIFICATION_ROUNDS
        + decomposition.forest_coloring_rounds
    )
    return decomposition


def _classify_edges(decomposition: ArboricityDecomposition) -> None:
    """Split the edges into typical and atypical (the sets E2 and E1)."""
    graph = decomposition.graph
    snapshots = decomposition.degree_snapshots
    k = decomposition.k
    typical: set = set()
    atypical: set = set()
    for u, v in graph.edges():
        lower = decomposition.lower_endpoint(u, v)
        higher = decomposition.higher_endpoint(u, v)
        snapshot = snapshots[decomposition.node_iteration[lower] - 1]
        if snapshot.get(higher, 0) > k:
            atypical.add((u, v))
        else:
            typical.add((u, v))
    decomposition.typical_edges = typical
    decomposition.atypical_edges = atypical


def _build_forests(decomposition: ArboricityDecomposition) -> None:
    """Partition the atypical edges into forests and star collections.

    Each lower endpoint colours its atypical edges towards higher
    neighbours with distinct colours from ``{1, ..., b}``; the edges of
    colour ``i`` form the forest ``F_i`` (every node has at most one higher
    neighbour in it).  Each forest is rooted towards higher endpoints and
    vertex 3-coloured with the Cole–Vishkin subroutine; splitting by the
    colour of the higher endpoint yields the star collections ``F_{i,j}``.
    """
    # Imported lazily to keep the decomposition package importable without
    # triggering the baselines package (which depends on repro.core).
    from repro.baselines.forest_coloring import color_forest_three

    per_lower: dict[Hashable, list] = {}
    for u, v in decomposition.atypical_edges:
        lower = decomposition.lower_endpoint(u, v)
        per_lower.setdefault(lower, []).append((u, v))

    num_forests = max(decomposition.b, 1)
    forests: list[set] = [set() for _ in range(num_forests)]
    for lower, edges in per_lower.items():
        edges_sorted = sorted(
            edges,
            key=lambda edge: decomposition.identifiers[
                decomposition.higher_endpoint(*edge)
            ],
        )
        if len(edges_sorted) > num_forests:
            raise RuntimeError(
                f"node {lower!r} has {len(edges_sorted)} atypical edges, more than "
                f"b={decomposition.b}; the compress operation guarantees at most b"
            )
        for index, edge in enumerate(edges_sorted):
            forests[index].add(edge)

    colorings: list[dict] = []
    star_collections: dict[tuple[int, int], set] = {}
    max_coloring_rounds = 0
    for index, forest_edges in enumerate(forests):
        if not forest_edges:
            colorings.append({})
            continue
        forest_graph = nx.Graph()
        forest_graph.add_edges_from(forest_edges)
        parents = {}
        for node in forest_graph.nodes():
            parents[node] = None
        for u, v in forest_edges:
            lower = decomposition.lower_endpoint(u, v)
            higher = decomposition.higher_endpoint(u, v)
            parents[lower] = higher
        colours, rounds = color_forest_three(
            forest_graph,
            parents,
            identifiers={
                node: decomposition.identifiers[node] for node in forest_graph.nodes()
            },
        )
        max_coloring_rounds = max(max_coloring_rounds, rounds)
        colorings.append(colours)
        for u, v in forest_edges:
            higher = decomposition.higher_endpoint(u, v)
            colour = colours[higher]
            star_collections.setdefault((index + 1, colour), set()).add((u, v))

    decomposition.forests = forests
    decomposition.forest_colorings = colorings
    decomposition.star_collections = star_collections
    decomposition.forest_coloring_rounds = max_coloring_rounds

"""The rake-and-compress process of [CHL+19] (Algorithm 1 of the paper).

The process peels a tree layer by layer.  In iteration ``i`` it first
*compresses* every node whose degree and all of whose neighbours' degrees
(in the remaining tree) are at most ``k``, and then *rakes* every node of
degree at most 1 in the remaining tree (after removing the nodes
compressed in this iteration).  After ``O(log_k n)`` iterations every node
has been marked.  The compress step is Algorithm 3's ``Compress(G, b, k)``
at ``b = 0``, run by the peel both decompositions share
(:mod:`repro.decomposition.peel`).

The decomposition exposes the two structural facts the transformation
relies on:

* **Lemma 10** — the subgraph induced by the edges whose lower endpoint is
  in a compress layer (in particular, the subgraph induced by the
  compressed nodes) has maximum degree at most ``k``;
* **Lemma 11** — every connected component of the subgraph induced by the
  raked nodes has diameter ``O(log_k n)``.

Each iteration of the process is a constant number of LOCAL rounds (a node
only inspects its neighbours' remaining degrees); the recorded
``rounds`` charge is two rounds per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

import networkx as nx

from repro.decomposition.peel import LayerOrder, Peel
from repro.local.csr import CSRAdjacency
from repro.local.network import default_identifiers
from repro.semigraph.semigraph import component_diameters

#: Rounds charged per peeling iteration (one for the compress test, one for
#: the rake test — each only inspects the 1-hop neighbourhood).
ROUNDS_PER_ITERATION = 2


@dataclass(frozen=True)
class Layer:
    """One layer of the decomposition."""

    iteration: int
    kind: str  # "compress" or "rake"
    nodes: frozenset

    @property
    def order_index(self) -> int:
        """Position of the layer in the lower-to-higher total order.

        Within one iteration the compress layer is created before the rake
        layer, so it is the lower of the two.
        """
        offset = 0 if self.kind == "compress" else 1
        return 2 * (self.iteration - 1) + offset


@dataclass
class RakeCompressDecomposition(LayerOrder):
    """The output of Algorithm 1 on a tree."""

    tree: nx.Graph
    k: int
    layers: list[Layer]
    node_layer: dict[Hashable, Layer]
    iterations: int
    rounds: int
    theoretical_iteration_bound: int
    identifiers: dict[Hashable, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # node sets
    # ------------------------------------------------------------------
    @property
    def compressed_nodes(self) -> set:
        """All nodes marked by a compress operation."""
        return {v for v, layer in self.node_layer.items() if layer.kind == "compress"}

    @property
    def raked_nodes(self) -> set:
        """All nodes marked by a rake operation."""
        return {v for v, layer in self.node_layer.items() if layer.kind == "rake"}

    # ------------------------------------------------------------------
    # the total order on nodes (layer first, identifier second)
    # ------------------------------------------------------------------
    def layer_rank(self, node: Hashable) -> int:
        """Position of ``node``'s layer in the lower-to-higher order."""
        return self.node_layer[node].order_index

    # ------------------------------------------------------------------
    # Lemma 10 / Lemma 11 as checkable properties
    # ------------------------------------------------------------------
    def compress_edge_subgraph(self) -> nx.Graph:
        """The subgraph induced by edges whose lower endpoint is compressed."""
        graph = nx.Graph()
        for u, v in self.tree.edges():
            lower = self.lower_endpoint(u, v)
            if self.node_layer[lower].kind == "compress":
                graph.add_edge(u, v)
        return graph

    def compress_edge_max_degree(self) -> int:
        """Maximum degree of the Lemma 10 subgraph (must be at most ``k``)."""
        graph = self.compress_edge_subgraph()
        return max((d for _, d in graph.degree()), default=0)

    def compressed_subgraph_max_degree(self) -> int:
        """Maximum degree of the subgraph induced by compressed nodes (≤ k)."""
        subgraph = self.tree.subgraph(self.compressed_nodes)
        return max((d for _, d in subgraph.degree()), default=0)

    def raked_component_diameters(self) -> list[int]:
        """Diameters of the connected components induced by raked nodes.

        Components come in the order of their first node in the tree.
        """
        raked = self.raked_nodes
        return component_diameters({
            v: [u for u in self.tree[v] if u in raked] for v in self.tree if v in raked
        })

    def lemma_11_diameter_bound(self) -> int:
        """The paper's bound ``4(log_k n + 1) + 2`` on raked component diameters."""
        n = max(self.tree.number_of_nodes(), 2)
        return math.ceil(4 * (math.log(n) / math.log(self.k) + 1) + 2)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RakeCompressDecomposition(n={self.tree.number_of_nodes()}, k={self.k}, "
            f"iterations={self.iterations}, compressed={len(self.compressed_nodes)}, "
            f"raked={len(self.raked_nodes)})"
        )


def rake_and_compress(tree: nx.Graph, k: int) -> RakeCompressDecomposition:
    """Run Algorithm 1 on ``tree`` with compress parameter ``k``.

    Parameters
    ----------
    tree:
        The input tree (or forest; every component is peeled independently,
        which only helps the process).
    k:
        The compress threshold, at least 2.

    Returns
    -------
    RakeCompressDecomposition
    """
    if k < 2:
        raise ValueError("the compress parameter k must be at least 2")
    if tree.number_of_nodes() == 0:
        return RakeCompressDecomposition(tree, k, [], {}, 0, 0, 1, {})

    peel = Peel(tree)
    n = peel.csr.num_nodes
    # A graph is a forest exactly when m = n − (number of components);
    # m < n alone passes a cycle padded out with isolated nodes.
    if tree.number_of_edges() != n - _count_components(peel.csr):
        raise ValueError("the input graph contains a cycle; Algorithm 1 expects a forest")

    theoretical_bound = math.ceil(math.log(max(n, 2)) / math.log(k)) + 1
    safety_cap = max(4 * theoretical_bound + 8, 32)

    node_of = peel.csr.nodes
    layers: list[Layer] = []
    node_layer: dict[Hashable, Layer] = {}
    iteration = 0

    def add_layer(kind: str, marked: list[int]) -> None:
        if marked:
            layer = Layer(iteration, kind, frozenset(node_of[i] for i in marked))
            layers.append(layer)
            for i in marked:
                node_layer[node_of[i]] = layer

    while peel.alive_indices:
        iteration += 1
        if iteration > safety_cap:
            raise RuntimeError(
                f"rake-and-compress did not terminate within {safety_cap} iterations "
                f"(n={n}, k={k}); this contradicts Lemma 9"
            )
        # Compress(G, 0, k): degree ≤ k and every remaining neighbour's
        # degree ≤ k; then rake what has degree ≤ 1 after it.
        add_layer("compress", peel.compress(k, 0))
        add_layer("rake", peel.rake())

    return RakeCompressDecomposition(
        tree=tree,
        k=k,
        layers=layers,
        node_layer=node_layer,
        iterations=iteration,
        rounds=ROUNDS_PER_ITERATION * iteration,
        theoretical_iteration_bound=theoretical_bound,
        identifiers=default_identifiers(tree.nodes()),
    )


def _count_components(csr: CSRAdjacency) -> int:
    """Number of connected components of the indexed graph."""
    offsets, targets = csr.offsets, csr.targets
    seen = [False] * csr.num_nodes
    components = 0
    for start in range(csr.num_nodes):
        if seen[start]:
            continue
        components += 1
        seen[start] = True
        stack = [start]
        while stack:
            i = stack.pop()
            for j in targets[offsets[i] : offsets[i + 1]]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
    return components

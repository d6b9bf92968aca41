"""The rake-and-compress process of [CHL+19] (Algorithm 1 of the paper).

The process peels a tree layer by layer.  In iteration ``i`` it first
*compresses* every node whose degree and all of whose neighbours' degrees
(in the remaining tree) are at most ``k``, and then *rakes* every node of
degree at most 1 in the remaining tree (after removing the nodes
compressed in this iteration).  After ``O(log_k n)`` iterations every node
has been marked.

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
class RakeCompressDecomposition:
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
    def order_key(self, node: Hashable) -> tuple[int, int]:
        """Sort key realising the paper's lower-to-higher total order."""
        return (self.node_layer[node].order_index, self.identifiers[node])

    def is_higher(self, u: Hashable, v: Hashable) -> bool:
        """Whether ``u`` is higher than ``v`` in the total order."""
        return self.order_key(u) > self.order_key(v)

    def lower_endpoint(self, u: Hashable, v: Hashable) -> Hashable:
        """The lower endpoint of the edge ``{u, v}``."""
        return v if self.is_higher(u, v) else u

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


def rake_and_compress(
    tree: nx.Graph,
    k: int,
    strict_iteration_bound: bool = False,
) -> RakeCompressDecomposition:
    """Run Algorithm 1 on ``tree`` with compress parameter ``k``.

    Parameters
    ----------
    tree:
        The input tree (or forest; every component is peeled independently,
        which only helps the process).
    k:
        The compress threshold, at least 2.
    strict_iteration_bound:
        When true, raise if the process needs more than the paper's
        ``⌈log_k n⌉ + 1`` iterations; otherwise keep iterating (and record
        the excess), which is useful for k-sweep ablations.

    Returns
    -------
    RakeCompressDecomposition
    """
    if k < 2:
        raise ValueError("the compress parameter k must be at least 2")
    if tree.number_of_nodes() == 0:
        return RakeCompressDecomposition(tree, k, [], {}, 0, 0, 1, {})

    # One-time CSR indexing: the peeling loop runs on int indices and
    # flat offset/target arrays rather than dict-of-set adjacencies.
    csr = CSRAdjacency.from_graph(tree)
    n = csr.num_nodes
    # A graph is a forest exactly when m = n − (number of components);
    # m < n alone passes a cycle padded out with isolated nodes.
    if tree.number_of_edges() != n - _count_components(csr):
        raise ValueError("the input graph contains a cycle; Algorithm 1 expects a forest")

    identifiers = default_identifiers(tree.nodes())

    theoretical_bound = math.ceil(math.log(max(n, 2)) / math.log(k)) + 1
    safety_cap = max(4 * theoretical_bound + 8, 32)

    node_of = csr.nodes
    offsets, targets = csr.offsets, csr.targets
    remaining = csr.degrees()
    alive = [True] * n
    alive_indices = list(range(n))

    layers: list[Layer] = []
    node_layer: dict[Hashable, Layer] = {}
    iteration = 0

    while alive_indices:
        iteration += 1
        if iteration > safety_cap:
            raise RuntimeError(
                f"rake-and-compress did not terminate within {safety_cap} iterations "
                f"(n={n}, k={k}); this contradicts Lemma 9"
            )
        if strict_iteration_bound and iteration > theoretical_bound:
            raise RuntimeError(
                f"rake-and-compress exceeded the ⌈log_k n⌉+1 = {theoretical_bound} "
                f"iteration bound (n={n}, k={k})"
            )

        # Compress: degree ≤ k and all neighbours' degrees ≤ k (in the
        # remaining forest).
        compressed = [
            i
            for i in alive_indices
            if remaining[i] <= k
            and all(
                remaining[j] <= k
                for j in targets[offsets[i] : offsets[i + 1]]
                if alive[j]
            )
        ]
        _remove(compressed, alive, offsets, targets, remaining)
        alive_indices = [i for i in alive_indices if alive[i]]
        if compressed:
            layer = Layer(iteration, "compress", frozenset(node_of[i] for i in compressed))
            layers.append(layer)
            for i in compressed:
                node_layer[node_of[i]] = layer

        # Rake: degree ≤ 1 in the forest remaining after the compress step.
        raked = [i for i in alive_indices if remaining[i] <= 1]
        _remove(raked, alive, offsets, targets, remaining)
        alive_indices = [i for i in alive_indices if alive[i]]
        if raked:
            layer = Layer(iteration, "rake", frozenset(node_of[i] for i in raked))
            layers.append(layer)
            for i in raked:
                node_layer[node_of[i]] = layer

    return RakeCompressDecomposition(
        tree=tree,
        k=k,
        layers=layers,
        node_layer=node_layer,
        iterations=iteration,
        rounds=ROUNDS_PER_ITERATION * iteration,
        theoretical_iteration_bound=theoretical_bound,
        identifiers=dict(identifiers),
    )


def _remove(
    marked: list[int],
    alive: list[bool],
    offsets: list[int],
    targets: list[int],
    remaining: list[int],
) -> None:
    """Remove ``marked`` indices from the remaining forest, updating degrees."""
    for i in marked:
        alive[i] = False
    for i in marked:
        for j in targets[offsets[i] : offsets[i + 1]]:
            if alive[j]:
                remaining[j] -= 1
        remaining[i] = 0


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

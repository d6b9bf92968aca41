"""The peel both decompositions run, and the order on the nodes it marks.

Algorithm 1 and Algorithm 3 of the paper peel a graph with one compress
rule, ``Compress(G, b, k)``: mark every remaining node of remaining degree
at most ``k`` with at most ``b`` remaining neighbours of degree greater
than ``k``.  Algorithm 3 applies it as is; Algorithm 1 applies it with
``b = 0`` and follows it with a rake.  The neighbours above ``k`` that a
marked node still had are its atypical edges in Algorithm 3, so the peel
keeps them as it marks.

:class:`Peel` indexes the input once into a CSR layout, so the loops run
on int indices and flat arrays instead of re-hashing node objects through
dict-of-set adjacencies every iteration.  :class:`LayerOrder` is the
paper's lower-to-higher total order on nodes, shared by both
decomposition objects.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.local.csr import CSRAdjacency


class Peel:
    """The remaining graph of a peeling process, indexed once.

    ``remaining[i]`` is node ``i``'s degree in the remaining graph, and 0
    once the node is removed, so a removed node never counts as above
    ``k``.
    """

    def __init__(self, graph: nx.Graph) -> None:
        self.csr = CSRAdjacency.from_graph(graph)
        self.remaining = self.csr.degrees()
        self.alive = [True] * self.csr.num_nodes
        self.alive_indices = list(range(self.csr.num_nodes))
        #: For each marked node that had any, its remaining neighbours of
        #: degree above ``k`` when it was marked.
        self.above_k: dict[int, list[int]] = {}

    def compress(self, k: int, b: int) -> list[int]:
        """Mark and remove every remaining node of degree at most ``k``
        with at most ``b`` remaining neighbours of degree above ``k``."""
        offsets, targets = self.csr.offsets, self.csr.targets
        remaining = self.remaining
        marked = []
        for i in self.alive_indices:
            if remaining[i] > k:
                continue
            neighbours = targets[offsets[i] : offsets[i + 1]]
            high = 0
            for j in neighbours:
                if remaining[j] > k:
                    high += 1
                    if high > b:
                        break
            if high <= b:
                marked.append(i)
                # Counted first: most marked nodes have none to keep.
                if high:
                    self.above_k[i] = [j for j in neighbours if remaining[j] > k]
        self._remove(marked)
        return marked

    def rake(self) -> list[int]:
        """Mark and remove every remaining node of degree at most 1."""
        remaining = self.remaining
        marked = [i for i in self.alive_indices if remaining[i] <= 1]
        self._remove(marked)
        return marked

    def _remove(self, marked: list[int]) -> None:
        """Remove ``marked`` from the remaining graph, updating degrees."""
        offsets, targets = self.csr.offsets, self.csr.targets
        alive, remaining = self.alive, self.remaining
        for i in marked:
            alive[i] = False
        for i in marked:
            for j in targets[offsets[i] : offsets[i + 1]]:
                if alive[j]:
                    remaining[j] -= 1
            remaining[i] = 0
        self.alive_indices = [i for i in self.alive_indices if alive[i]]


class LayerOrder:
    """The paper's lower-to-higher total order on the nodes of a
    decomposition: a node's layer first, its identifier second.

    A subclass holds ``identifiers`` and supplies :meth:`layer_rank`.
    """

    identifiers: dict[Hashable, int]

    def layer_rank(self, node: Hashable) -> int:
        """Position of ``node``'s layer in the order, lower layers first."""
        raise NotImplementedError

    def order_key(self, node: Hashable) -> tuple[int, int]:
        """Sort key realising the lower-to-higher total order."""
        return (self.layer_rank(node), self.identifiers[node])

    def is_higher(self, u: Hashable, v: Hashable) -> bool:
        """Whether ``u`` is higher than ``v`` in the total order."""
        return self.order_key(u) > self.order_key(v)

    def lower_endpoint(self, u: Hashable, v: Hashable) -> Hashable:
        """The lower endpoint of the edge ``{u, v}``."""
        return v if self.is_higher(u, v) else u

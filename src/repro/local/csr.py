"""A CSR-style (compressed sparse row) adjacency index for simulation hot loops.

:mod:`networkx` graphs are convenient to build and mutate, but every
traversal pays for hashing arbitrary node objects and walking nested
dictionaries.  The simulation engine and the decomposition processes only
ever *read* the topology, so they index it once into three flat arrays:

* ``nodes``     — the original node objects, ``nodes[i]`` is node ``i``;
* ``offsets``   — ``offsets[i] : offsets[i + 1]`` is the slice of
  ``targets`` holding node ``i``'s neighbours (so
  ``offsets[i + 1] - offsets[i]`` is its degree);
* ``targets``   — neighbour *indices* (ints), not node objects.

All inner loops then run on small ints and list slices.  The index is
filled from an adjacency mapping (node → its distinct neighbours), in one
place, :meth:`CSRAdjacency.from_adjacency`: a :mod:`networkx` graph hands
over its own neighbour dicts (:meth:`CSRAdjacency.from_graph`), a
semi-graph the neighbour sets of its underlying graph.  When an
``order_key`` is supplied (the simulator passes the identifier
assignment), the build visits sources in increasing key order, so every
neighbour slice comes out sorted by that key without any per-node sort —
the whole build is ``O(n log n + m)``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Collection, Hashable, Mapping, Sequence

import networkx as nx


class CSRAdjacency:
    """An immutable int-indexed adjacency built once from a graph."""

    __slots__ = ("nodes", "index", "offsets", "targets", "_array_cache")

    def __init__(
        self,
        nodes: Sequence[Hashable],
        index: dict,
        offsets: list[int],
        targets: list[int],
    ) -> None:
        self.nodes = tuple(nodes)
        self.index = index
        self.offsets = offsets
        self.targets = targets
        self._array_cache = None

    @classmethod
    def from_graph(
        cls,
        graph: nx.Graph,
        order_key: Callable[[Hashable], int] | None = None,
    ) -> "CSRAdjacency":
        """Index ``graph`` through :meth:`from_adjacency`.

        ``graph.adjacency()`` yields the raw neighbour dicts in node order;
        ``graph.adj[node]`` would wrap each one in a fresh view.
        """
        return cls.from_adjacency(dict(graph.adjacency()), order_key=order_key)

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Mapping[Hashable, Collection[Hashable]],
        order_key: Callable[[Hashable], int] | None = None,
    ) -> "CSRAdjacency":
        """Index an undirected adjacency mapping into flat arrays.

        Node ``i`` is the ``i``-th key of ``adjacency``.  The caller
        vouches that the mapping is symmetric, loop-free and lists only
        keys as neighbours (:class:`repro.local.Network` checks a mapping
        it is handed).

        Parameters
        ----------
        order_key:
            Optional total order on nodes.  When given, every node's
            neighbour slice is sorted by ``order_key`` (exploiting that
            filling slices in source-key order leaves each one sorted, so
            no per-node sort is needed).
        """
        nodes = tuple(adjacency)
        index = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        rows = list(adjacency.values())
        offsets = [0, *accumulate(map(len, rows))]
        if order_key is None:
            order = range(n)
        else:
            keys = [order_key(node) for node in nodes]
            order = sorted(range(n), key=keys.__getitem__)
        # Fill each node's slice through a write cursor rather than n
        # per-node lists: ints are not tracked by the cyclic garbage
        # collector, so a large build does not set off full collections.
        cursor = offsets[:-1]
        targets = [0] * offsets[-1]
        for i in order:
            for neighbor in rows[i]:
                j = index[neighbor]
                targets[cursor[j]] = i
                cursor[j] += 1
        return cls(nodes, index, offsets, targets)

    # ------------------------------------------------------------------
    # reads (all O(1) or O(degree))
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def degree_of(self, i: int) -> int:
        """Degree of node index ``i``."""
        return self.offsets[i + 1] - self.offsets[i]

    def neighbor_slice(self, i: int) -> list[int]:
        """The neighbour indices of node index ``i`` (a fresh list slice)."""
        return self.targets[self.offsets[i] : self.offsets[i + 1]]

    def degrees(self) -> list[int]:
        """All degrees, indexed like ``nodes``."""
        offsets = self.offsets
        return [offsets[i + 1] - offsets[i] for i in range(len(self.nodes))]

    def array_layout(self):
        """The adjacency as NumPy arrays ``(indptr, indices, edge_sources)``.

        ``indptr``/``indices`` mirror ``offsets``/``targets``;
        ``edge_sources[e]`` is the source index of directed edge slot ``e``
        (i.e. ``indices[e]`` is a neighbour of ``edge_sources[e]``).  Built
        on first use and cached — the adjacency is immutable — so repeated
        vectorized rounds pay the list-to-array conversion once.  Requires
        numpy; callers gate on :func:`repro.local.vectorized.numpy_available`.
        """
        if self._array_cache is None:
            import numpy

            indptr = numpy.asarray(self.offsets, dtype=numpy.int64)
            indices = numpy.asarray(self.targets, dtype=numpy.int64)
            degrees = indptr[1:] - indptr[:-1]
            edge_sources = numpy.repeat(
                numpy.arange(len(self.nodes), dtype=numpy.int64), degrees
            )
            self._array_cache = (indptr, indices, edge_sources)
        return self._array_cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRAdjacency(n={len(self.nodes)}, m={len(self.targets) // 2})"

"""The communication graph of the LOCAL model.

A :class:`Network` indexes an undirected simple graph, given as a
:mod:`networkx` graph or as an adjacency mapping (node → its distinct
neighbours, the form :meth:`repro.semigraph.SemiGraph.adjacency` returns),
and fixes the information every node starts with: a globally unique
identifier from ``{1, ..., n^c}``, the number of nodes ``n``, the maximum
degree ``Δ``, and optional problem-specific per-node inputs (for example
the parent pointer used by the forest colouring subroutine).

Data layout
-----------
A network is immutable after construction, so ``__init__`` performs a
single indexing pass and every subsequent topology query is served from
caches:

* ``adjacency`` is the mapping the network was built on: a networkx
  graph hands over its own neighbour dicts, a mapping is kept as it is;
* ``max_degree`` and ``max_identifier`` are plain attributes computed
  once (the seed implementation recomputed both with a full scan on
  every access, which made context construction quadratic);
* the adjacency is compiled into a CSR-style flat layout
  (:class:`repro.local.csr.CSRAdjacency`): an int-indexed node table plus
  ``offsets``/``targets`` arrays whose neighbour slices are already
  sorted by identifier.  Both kinds of input go through the one fill,
  :meth:`~repro.local.csr.CSRAdjacency.from_adjacency`, which visits
  sources in increasing identifier order, so no per-node sort is needed
  — ``O(n log n + m)`` total instead of the seed's ``O(m log Δ)`` sort
  per ``neighbors()`` call;
* ``nodes()`` returns one cached tuple and ``neighbors()`` memoizes the
  identifier-sorted neighbour tuple of each node.

The build runs under the ``network`` phase of the current
:class:`~repro.local.context.CellContext`.

One topology per instance
-------------------------
A pipeline that runs several algorithms on one graph (Linial's
colouring, then the colour-class reduction, then the MIS sweep) builds
one network and runs each stage on :meth:`Network.with_inputs`
derivations of it.  A derivation shares the adjacency, node tuple,
identifiers, CSR adjacency (and its ``array_layout()`` cache), ``Δ``,
the largest identifier, the neighbour cache and, once the array engine
has built it, the identifier array; it differs only in ``node_inputs``
and ``shared``, costs no indexing pass and records no ``network`` time.

Neither the graph nor the mapping may be mutated after the network is
built; the caches would go stale silently.
"""

from __future__ import annotations

import copy
from typing import Any, Collection, Hashable, Iterable, Mapping

import networkx as nx

from repro.local.context import span
from repro.local.csr import CSRAdjacency


def default_identifiers(nodes: Iterable[Hashable]) -> dict[Hashable, int]:
    """The identifier assignment used when none is given: ``nodes``
    numbered ``1 .. n`` in sorted order of their representation.

    Deterministic (adversary-friendly, but valid).  :class:`Network` and
    both decomposition processes number nodes this way, so a node keeps
    one identifier across every layer of a pipeline.
    """
    ordered = sorted(nodes, key=repr)
    return {node: index for index, node in enumerate(ordered, start=1)}


# A self-loop carries no meaning in the LOCAL message model, and networkx
# counts one twice towards a node's degree where the CSR index counts it
# once, so both kinds of input reject it outright.
_SELF_LOOPS = "the LOCAL network must not contain self-loops"


def _check_adjacency(adjacency: Mapping[Hashable, Collection[Hashable]]) -> None:
    """Reject a mapping that is not an undirected simple graph: a node
    listed as its own neighbour, a neighbour that is not a key, or a pair
    listed in one direction only."""
    for node, neighbors in adjacency.items():
        if node in neighbors:
            raise ValueError(_SELF_LOOPS)
        for neighbor in neighbors:
            row = adjacency.get(neighbor)
            if row is None:
                raise ValueError(
                    f"neighbour {neighbor!r} of {node!r} is not a node of the network"
                )
            if node not in row:
                raise ValueError(
                    f"{node!r} lists {neighbor!r} as a neighbour, but not vice versa"
                )


class Network:
    """A LOCAL-model network over an undirected simple graph.

    Parameters
    ----------
    graph:
        The communication graph: an undirected simple ``nx.Graph``, or an
        adjacency mapping from each node to its distinct neighbours.
    identifiers:
        Optional mapping from node to its unique integer identifier.  When
        omitted, :func:`default_identifiers` numbers the nodes.
    node_inputs:
        Optional per-node inputs available to the node at the start of the
        computation.
    shared:
        Globally known quantities beyond ``n`` and ``Δ`` (for instance an
        arboricity bound), visible to every node.
    """

    def __init__(
        self,
        graph: nx.Graph | Mapping[Hashable, Collection[Hashable]],
        identifiers: Mapping[Hashable, int] | None = None,
        node_inputs: Mapping[Hashable, Any] | None = None,
        shared: Mapping[str, Any] | None = None,
    ) -> None:
        with span("network"):
            if isinstance(graph, nx.Graph):
                if graph.is_directed() or graph.is_multigraph():
                    raise ValueError(
                        "the LOCAL network must be a simple undirected graph"
                    )
                if nx.number_of_selfloops(graph):
                    raise ValueError(_SELF_LOOPS)
                adjacency = dict(graph.adjacency())
            else:
                adjacency = graph
                _check_adjacency(adjacency)
            #: Each node's distinct neighbours, keyed in node order.
            self.adjacency: Mapping[Hashable, Collection[Hashable]] = adjacency
            self._nodes: tuple = tuple(adjacency)
            if identifiers is None:
                identifiers = default_identifiers(self._nodes)
            self.identifiers: dict[Hashable, int] = dict(identifiers)
            self._validate_identifiers()
            self.node_inputs: dict[Hashable, Any] = dict(node_inputs or {})
            self.shared: dict[str, Any] = dict(shared or {})
            # One-time indexing pass: identifier-sorted CSR adjacency plus
            # the globally known scalars.
            ids = self.identifiers
            self.csr: CSRAdjacency = CSRAdjacency.from_adjacency(
                adjacency, order_key=ids.__getitem__
            )
            self.max_degree: int = max(self.csr.degrees(), default=0)
            self.max_identifier: int = max(ids.values(), default=1)
            self._neighbor_cache: list[tuple | None] = [None] * len(self._nodes)
            #: Identifiers in CSR index order, built by the array engine on
            #: first use (see :mod:`repro.local.vectorized`).
            self._identifier_array = None

    def with_inputs(
        self,
        node_inputs: Mapping[Hashable, Any] | None = None,
        shared: Mapping[str, Any] | None = None,
    ) -> "Network":
        """A network on the same topology with other per-node inputs and
        shared quantities.

        Shares every topology cache with this network (see the module
        docstring) without indexing the graph again; this network's
        ``node_inputs`` and ``shared`` are left as they are.
        """
        derived = copy.copy(self)
        derived.node_inputs = dict(node_inputs or {})
        derived.shared = dict(shared or {})
        return derived

    def _validate_identifiers(self) -> None:
        missing = [v for v in self._nodes if v not in self.identifiers]
        if missing:
            raise ValueError(f"nodes without identifiers: {missing[:5]!r}")
        values = list(self.identifiers[v] for v in self._nodes)
        if len(set(values)) != len(values):
            raise ValueError("identifiers must be globally unique")
        if any(not isinstance(x, int) or x < 1 for x in values):
            raise ValueError("identifiers must be positive integers")

    # ------------------------------------------------------------------
    # globally known quantities
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """The number of nodes ``n`` (known to every node)."""
        return len(self._nodes)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def nodes(self) -> Iterable[Hashable]:
        """The network's nodes (a cached tuple; do not mutate)."""
        return self._nodes

    def neighbors(self, node: Hashable) -> tuple:
        """The neighbours of ``node``, sorted by identifier (memoized)."""
        i = self.csr.index[node]
        cached = self._neighbor_cache[i]
        if cached is None:
            nodes = self.csr.nodes
            cached = tuple(nodes[j] for j in self.csr.neighbor_slice(i))
            self._neighbor_cache[i] = cached
        return cached

    def degree(self, node: Hashable) -> int:
        """The degree of ``node``."""
        return self.csr.degree_of(self.csr.index[node])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(n={self.num_nodes}, m={len(self.csr.targets) // 2}, "
            f"max_degree={self.max_degree})"
        )

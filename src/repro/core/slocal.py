"""The SLOCAL(1) sequential-local view of the problem classes P1 and P2.

The paper (Section 1.1) characterises the problems its transformation
applies to through the existence of *sequential 1-hop solvers*:

* class **P1** (node problems): there is a sequential algorithm that, given
  the nodes in an adversarial order, assigns the labels of all half-edges
  incident on the current node while looking only at the node's 1-hop
  neighbourhood (including the outputs already committed there) — and this
  still works when the instance comes with a correct partial solution;
* class **P2** (edge problems): the same with edges in place of nodes and
  the 1-hop edge neighbourhood.

This module makes those definitions executable: :func:`solve_node_sequential`
and :func:`solve_edge_sequential` drive an oracle over an arbitrary
processing order while exposing only the local view the definition allows
(:class:`NodeView` / :class:`EdgeView`), and the provided oracles realise
the membership of MIS, (deg+1)-colouring (P1) and maximal matching,
(edge-degree+1)-edge colouring (P2).  :data:`P1_ORACLES` and
:data:`P2_ORACLES` are the one table of which problems have a rule.

The same rules solve every gathered component of the transformation: the
list solvers of :mod:`repro.core.sequential` run them over a list
instance, passing the labels its lists fix outside the component as the
views' ``outside`` labels.  The test-suite also exercises the rules under
adversarial (randomised) orders and on partially solved instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.problems import DUMMY
from repro.problems.base import NodeEdgeCheckableProblem
from repro.problems.matching import MATCHED, POINTER as MATCH_POINTER, UNMATCHED
from repro.problems.mis import IN_MIS, OUT, POINTER as MIS_POINTER
from repro.semigraph import HalfEdgeLabeling, SemiGraph
from repro.semigraph.semigraph import EdgeId, HalfEdge, NodeId


class SLocalError(RuntimeError):
    """Raised when an oracle cannot label its item consistently with its local view."""


# ----------------------------------------------------------------------
# Local views
# ----------------------------------------------------------------------
@dataclass
class NodeView:
    """The 1-hop view available when a node is processed (class P1).

    ``outside`` maps an edge whose far endpoint lies outside the solved
    semi-graph to the labels already fixed there (an edge list's ``ψ``).
    """

    node: NodeId
    semigraph: SemiGraph
    labeling: HalfEdgeLabeling
    outside: Mapping[EdgeId, tuple] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._edges = sorted(self.semigraph.incident_edges(self.node), key=repr)

    def incident_edges(self) -> list[EdgeId]:
        """The edges incident on the processed node, in a deterministic order."""
        return list(self._edges)

    def rank(self, edge: EdgeId) -> int:
        """The rank of an incident edge."""
        return self.semigraph.rank(edge)

    def neighbor(self, edge: EdgeId) -> NodeId | None:
        """The other endpoint of an incident rank-2 edge (``None`` otherwise)."""
        return self.semigraph.other_endpoint(edge, self.node)

    def label_across(self, edge: EdgeId) -> Any:
        """The label already committed on the far half-edge of ``edge`` (or ``None``).

        Across an edge that leaves the solved semi-graph, this is the label
        ``outside`` fixes there.
        """
        other = self.neighbor(edge)
        if other is None:
            fixed = self.outside.get(edge, ())
            return fixed[0] if fixed else None
        return self.labeling.get(HalfEdge(other, edge))


@dataclass
class EdgeView:
    """The 1-hop edge view available when an edge is processed (class P2).

    ``outside`` maps a node to the labels already fixed on its half-edges
    outside the solved semi-graph (a node list's ``ψ``).
    """

    edge: EdgeId
    semigraph: SemiGraph
    labeling: HalfEdgeLabeling
    outside: Mapping[NodeId, tuple] = field(default_factory=dict)

    def endpoints(self) -> tuple:
        """The processed edge's endpoints."""
        return self.semigraph.endpoints(self.edge)

    def rank(self) -> int:
        """The processed edge's rank."""
        return self.semigraph.rank(self.edge)

    def endpoint_labels(self, node: NodeId) -> list[Any]:
        """Labels already committed on the other half-edges of an endpoint, as a multiset."""
        labels = list(self.outside.get(node, ()))
        for edge in self.semigraph.incident_edges(node):
            if edge != self.edge:
                label = self.labeling.get(HalfEdge(node, edge))
                if label is not None:
                    labels.append(label)
        return labels


NodeOracle = Callable[[NodeView], Mapping[EdgeId, Any]]
EdgeOracle = Callable[[EdgeView], Mapping[NodeId, Any]]


# ----------------------------------------------------------------------
# Sequential drivers
# ----------------------------------------------------------------------
def solve_node_sequential(
    semigraph: SemiGraph,
    oracle: NodeOracle,
    order: Iterable[NodeId] | None = None,
    partial: HalfEdgeLabeling | None = None,
    outside: Mapping[EdgeId, tuple] | None = None,
) -> HalfEdgeLabeling:
    """Run a P1-style sequential 1-hop solver.

    Nodes are processed in ``order`` (default: a deterministic order), which
    must hold every node exactly once; for each node the oracle must return
    a label for every incident half-edge that is not already labeled by
    ``partial``.  ``outside`` is handed to every :class:`NodeView`.
    """
    labeling = partial.copy() if partial is not None else HalfEdgeLabeling()
    outside = outside if outside is not None else {}
    if order is None:
        nodes = sorted(semigraph.nodes, key=repr)
    else:
        nodes = list(order)
        if len(nodes) != semigraph.num_nodes() or set(nodes) != semigraph.nodes:
            raise ValueError("the processing order must cover every node exactly once")
    for node in nodes:
        view = NodeView(node, semigraph, labeling, outside)
        decisions = oracle(view)
        for edge in semigraph.incident_edges(node):
            half_edge = HalfEdge(node, edge)
            if labeling.is_labeled(half_edge):
                continue
            if edge not in decisions:
                raise SLocalError(
                    f"oracle left half-edge {half_edge!r} unlabeled at node {node!r}"
                )
            labeling.assign(half_edge, decisions[edge])
    return labeling


def solve_edge_sequential(
    semigraph: SemiGraph,
    oracle: EdgeOracle,
    order: Iterable[EdgeId] | None = None,
    partial: HalfEdgeLabeling | None = None,
    outside: Mapping[NodeId, tuple] | None = None,
) -> HalfEdgeLabeling:
    """Run a P2-style sequential 1-hop solver (edges processed one at a time).

    ``order`` must hold every edge exactly once; ``outside`` is handed to
    every :class:`EdgeView`.
    """
    labeling = partial.copy() if partial is not None else HalfEdgeLabeling()
    outside = outside if outside is not None else {}
    if order is None:
        edges = sorted(semigraph.edges, key=repr)
    else:
        edges = list(order)
        if len(edges) != semigraph.num_edges() or set(edges) != semigraph.edges:
            raise ValueError("the processing order must cover every edge exactly once")
    for edge in edges:
        view = EdgeView(edge, semigraph, labeling, outside)
        decisions = oracle(view)
        for node in semigraph.endpoints(edge):
            half_edge = HalfEdge(node, edge)
            if labeling.is_labeled(half_edge):
                continue
            if node not in decisions:
                raise SLocalError(
                    f"oracle left half-edge {half_edge!r} unlabeled at edge {edge!r}"
                )
            labeling.assign(half_edge, decisions[node])
    return labeling


# ----------------------------------------------------------------------
# P1 oracles
# ----------------------------------------------------------------------
def mis_oracle(view: NodeView) -> dict[EdgeId, Any]:
    """Greedy MIS membership decision from the 1-hop view.

    The node joins unless an MIS node lies across one of its edges; then it
    points ``P`` at one of those and puts ``O`` everywhere else.
    """
    edges = view.incident_edges()
    blocking = [edge for edge in edges if view.label_across(edge) == IN_MIS]
    if not blocking:
        return {edge: IN_MIS for edge in edges}
    pointer = min(blocking, key=repr)
    return {edge: MIS_POINTER if edge == pointer else OUT for edge in edges}


def coloring_oracle(view: NodeView) -> dict[EdgeId, Any]:
    """Greedy (deg+1)-colouring decision from the 1-hop view.

    Each edge forbids at most one colour, so the smallest free colour is at
    most ``deg + 1``; a larger one means the view was inconsistent.
    """
    edges = view.incident_edges()
    forbidden = {
        across for across in map(view.label_across, edges) if isinstance(across, int)
    }
    colour = 1
    while colour in forbidden:
        colour += 1
    if colour > len(edges) + 1:
        raise SLocalError(
            f"node {view.node!r} needs colour {colour} > deg+1 = {len(edges) + 1}"
        )
    return {edge: colour for edge in edges}


# ----------------------------------------------------------------------
# P2 oracles
# ----------------------------------------------------------------------
def matching_oracle(view: EdgeView) -> dict[NodeId, Any]:
    """The Lemma 17 decision rule from the 1-hop edge view."""
    if view.rank() < 2:
        return {node: DUMMY for node in view.endpoints()}
    first, second = view.endpoints()
    matched = {
        node: MATCHED in view.endpoint_labels(node) for node in (first, second)
    }
    if not matched[first] and not matched[second]:
        return {first: MATCHED, second: MATCHED}
    if matched[first] and matched[second]:
        return {first: MATCH_POINTER, second: MATCH_POINTER}
    if matched[first]:
        return {first: MATCH_POINTER, second: UNMATCHED}
    return {first: UNMATCHED, second: MATCH_POINTER}


def edge_coloring_oracle(view: EdgeView) -> dict[NodeId, Any]:
    """The Lemma 16 decision rule from the 1-hop edge view."""
    if view.rank() < 2:
        return {node: DUMMY for node in view.endpoints()}
    first, second = view.endpoints()
    labels_first = [lab for lab in view.endpoint_labels(first) if lab != DUMMY]
    labels_second = [lab for lab in view.endpoint_labels(second) if lab != DUMMY]
    used = {lab[1] for lab in labels_first + labels_second if isinstance(lab, tuple)}
    budget = len(labels_first) + len(labels_second) + 1
    colour = next(c for c in range(1, budget + 1) if c not in used)
    return {
        first: (len(labels_first) + 1, colour),
        second: (len(labels_second) + 1, colour),
    }


#: The P1 / P2 membership witnesses shipped with this reproduction, and the
#: rules that solve every gathered list instance.
P1_ORACLES: dict[str, NodeOracle] = {
    "maximal-independent-set": mis_oracle,
    "(deg+1)-coloring": coloring_oracle,
}
P2_ORACLES: dict[str, EdgeOracle] = {
    "maximal-matching": matching_oracle,
    "(edge-degree+1)-edge-coloring": edge_coloring_oracle,
}


def membership_class(problem: NodeEdgeCheckableProblem) -> str | None:
    """Which class (``"P1"`` / ``"P2"``) this reproduction has a witness for."""
    if problem.name in P1_ORACLES:
        return "P1"
    if problem.name in P2_ORACLES:
        return "P2"
    return None

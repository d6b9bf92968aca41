"""The node-list and edge-list variants ``Π*`` and ``Π×`` (Definitions 7, 8).

Both variants describe the residual problem on a sub-semi-graph of a larger
instance on which ``Π`` has been partially solved.  The "list" attached to
a node (for ``Π*``) or to an edge (for ``Π×``) is the family of label
multisets that remain admissible given the labels already fixed on the
other incident half-edges in the larger instance.

The paper writes these lists as the collections ``N^i_{Π,ψ}`` and
``E^i_{Π,ψ}`` — the constraint of ``Π`` with the fixed multiset ``ψ``
"baked in".  We represent a list directly by the pair ``(problem, ψ)``:
membership of a multiset ``χ`` is then simply the ``Π``-membership of the
combined multiset ``χ ∪ ψ``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.problems.base import NodeEdgeCheckableProblem
from repro.problems.verification import VerificationResult, check_labeling
from repro.semigraph import HalfEdgeLabeling, SemiGraph
from repro.semigraph.labeling import canonical_multiset
from repro.semigraph.semigraph import EdgeId, HalfEdge, NodeId


@dataclass(frozen=True)
class NodeListConstraint:
    """The constraint ``N^i_{Π,ψ}``: admissible completions of a node.

    ``fixed`` is the multiset ``ψ`` of labels already assigned (in the
    larger instance) to incident half-edges that are *not* part of the
    current sub-instance.
    """

    problem: NodeEdgeCheckableProblem
    fixed: tuple = ()

    def allows(self, labels: Iterable[Any]) -> bool:
        """Whether the multiset ``labels`` is in ``N^{len(labels)}_{Π,ψ}``."""
        combined = tuple(labels) + tuple(self.fixed)
        return self.problem.node_config_ok(canonical_multiset(combined))


@dataclass(frozen=True)
class EdgeListConstraint:
    """The constraint ``E^i_{Π,ψ}``: admissible completions of an edge.

    ``full_rank`` is the rank of the edge in the larger instance, i.e.
    ``len(fixed) + i`` where ``i`` is the rank within the sub-instance.
    """

    problem: NodeEdgeCheckableProblem
    fixed: tuple = ()
    full_rank: int = 2

    def allows(self, labels: Iterable[Any]) -> bool:
        """Whether the multiset ``labels`` is in ``E^{len(labels)}_{Π,ψ}``."""
        labels = tuple(labels)
        combined = labels + tuple(self.fixed)
        if len(combined) != self.full_rank:
            return False
        return self.problem.edge_config_ok(canonical_multiset(combined), self.full_rank)


@dataclass
class NodeListInstance:
    """An input instance of ``Π*``: a semi-graph plus a list per node.

    Edges keep the plain edge constraint ``E_Π`` of the base problem.
    """

    problem: NodeEdgeCheckableProblem
    semigraph: SemiGraph
    node_lists: dict[NodeId, NodeListConstraint] = field(default_factory=dict)

    def list_for(self, node: NodeId) -> NodeListConstraint:
        """The list of ``node`` (a trivial list if none was supplied)."""
        constraint = self.node_lists.get(node)
        if constraint is None:
            constraint = NodeListConstraint(self.problem, ())
        return constraint


@dataclass
class EdgeListInstance:
    """An input instance of ``Π×``: a semi-graph plus a list per edge.

    Nodes keep the plain node constraint ``N_Π`` of the base problem.
    """

    problem: NodeEdgeCheckableProblem
    semigraph: SemiGraph
    edge_lists: dict[EdgeId, EdgeListConstraint] = field(default_factory=dict)

    def list_for(self, edge: EdgeId) -> EdgeListConstraint:
        """The list of ``edge`` (a trivial list if none was supplied)."""
        constraint = self.edge_lists.get(edge)
        if constraint is None:
            constraint = EdgeListConstraint(self.problem, (), self.semigraph.rank(edge))
        return constraint


# ----------------------------------------------------------------------
# Construction from a partially solved larger instance
# ----------------------------------------------------------------------
def build_node_list_instance(
    problem: NodeEdgeCheckableProblem,
    full_semigraph: SemiGraph,
    sub_semigraph: SemiGraph,
    partial: HalfEdgeLabeling,
) -> NodeListInstance:
    """The ``Π*`` instance on ``sub_semigraph`` induced by a partial solution.

    For each node ``u`` of the sub-semi-graph, the fixed multiset ``χ(u)``
    consists of the labels that ``partial`` assigns to half-edges of ``u``
    in the full semi-graph that are not part of the sub-semi-graph (this is
    the construction used in Algorithm 4, line 2).
    """
    labels = partial.as_mapping()
    node_lists: dict[NodeId, NodeListConstraint] = {}
    for node in sub_semigraph.nodes:
        fixed = []
        outside = full_semigraph.incident_edges(node) - sub_semigraph.incident_edges(node)
        for edge in outside:
            half_edge = HalfEdge(node, edge)
            if half_edge in labels:
                fixed.append(labels[half_edge])
        node_lists[node] = NodeListConstraint(problem, canonical_multiset(fixed))
    return NodeListInstance(problem, sub_semigraph, node_lists)


def build_edge_list_instance(
    problem: NodeEdgeCheckableProblem,
    full_semigraph: SemiGraph,
    sub_semigraph: SemiGraph,
    partial: HalfEdgeLabeling,
) -> EdgeListInstance:
    """The ``Π×`` instance on ``sub_semigraph`` induced by a partial solution.

    For each edge ``e`` of the sub-semi-graph, the fixed multiset ``χ(e)``
    consists of the labels already assigned to half-edges of ``e`` in the
    full semi-graph that are not part of the sub-semi-graph (Algorithm 2,
    line 2).
    """
    labels = partial.as_mapping()
    edge_lists: dict[EdgeId, EdgeListConstraint] = {}
    for edge, inside in sub_semigraph.edge_endpoints().items():
        fixed = []
        endpoints = full_semigraph.endpoints(edge)
        for node in endpoints:
            if node in inside:
                continue
            half_edge = HalfEdge(node, edge)
            if half_edge in labels:
                fixed.append(labels[half_edge])
        edge_lists[edge] = EdgeListConstraint(
            problem, canonical_multiset(fixed), full_rank=len(endpoints)
        )
    return EdgeListInstance(problem, sub_semigraph, edge_lists)


# ----------------------------------------------------------------------
# Verification of list-variant solutions
# ----------------------------------------------------------------------
def verify_node_list_solution(
    instance: NodeListInstance, labeling: HalfEdgeLabeling
) -> VerificationResult:
    """Verify a solution to a ``Π*`` instance (Definition 7)."""
    list_for = instance.list_for
    edge_config_ok = instance.problem.edge_config_ok
    return _unlabeled_first(check_labeling(
        instance.semigraph,
        labeling,
        lambda node, config: list_for(node).allows(config),
        lambda edge, config, rank: edge_config_ok(config, rank),
        node_message="node list does not allow configuration",
    ))


def verify_edge_list_solution(
    instance: EdgeListInstance, labeling: HalfEdgeLabeling
) -> VerificationResult:
    """Verify a solution to a ``Π×`` instance (Definition 8)."""
    node_config_ok = instance.problem.node_config_ok
    list_for = instance.list_for
    return _unlabeled_first(check_labeling(
        instance.semigraph,
        labeling,
        lambda node, config: node_config_ok(config),
        lambda edge, config, rank: list_for(edge).allows(config),
        edge_message="edge list does not allow configuration",
    ))


def _unlabeled_first(result: VerificationResult) -> VerificationResult:
    """A list solution must label every half-edge: if it does not, only
    the unlabeled half-edges are reported."""
    unlabeled = [v for v in result.violations if v.kind == "unlabeled"]
    if unlabeled:
        return VerificationResult(ok=False, violations=unlabeled)
    return result

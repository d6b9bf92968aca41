"""Verification of half-edge labelings against a node-edge-checkable problem.

A solution is valid (Definition 6) when every node's label multiset is in
``N_Π^{deg}`` and every edge's label multiset is in ``E_Π^{rank}``.  The
verifier reports every violated constraint, which the test-suite and the
experiment harness use both to assert correctness and to produce useful
diagnostics when an algorithm is wrong.

:func:`verify_solution` and the list verifiers of
:mod:`repro.problems.lists` share one walk, :func:`check_labeling`.  It
passes once over the semi-graph's edges and reads each half-edge's label
once: an edge's labels are checked as soon as they are gathered, and each
label is also appended to its node's list.  Every node whose half-edges
are all labeled is then checked.  Each complete configuration goes once
through the predicate the caller supplies, in the order it was gathered:
a constraint decides a multiset (Definition 6), so the order does not
change a verdict.  Only a violated configuration is put in
:func:`~repro.semigraph.labeling.canonical_multiset` order, the one a
:class:`Violation` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.problems.base import NodeEdgeCheckableProblem
from repro.semigraph import HalfEdgeLabeling, SemiGraph
from repro.semigraph.labeling import canonical_multiset
from repro.semigraph.semigraph import EdgeId, NodeId


@dataclass(frozen=True)
class Violation:
    """A single violated constraint."""

    kind: str  # "node", "edge", or "unlabeled"
    subject: Any  # the node or edge identifier
    configuration: tuple
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.subject!r}: {self.message} (labels={self.configuration!r})"


@dataclass
class VerificationResult:
    """Outcome of verifying a labeling against a problem."""

    ok: bool
    violations: list[Violation] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        """Human-readable one-line summary."""
        if self.ok:
            return "valid solution"
        return f"{len(self.violations)} violations: " + "; ".join(
            str(v) for v in self.violations[:5]
        )


def verify_solution(
    problem: NodeEdgeCheckableProblem,
    semigraph: SemiGraph,
    labeling: HalfEdgeLabeling,
    require_complete: bool = True,
) -> VerificationResult:
    """Check a half-edge labeling against ``problem`` on ``semigraph``.

    Parameters
    ----------
    require_complete:
        When true (the default), any unlabeled half-edge is reported as a
        violation.  When false, only nodes and edges all of whose incident
        half-edges are labeled are checked — useful for verifying the
        intermediate, partial outputs produced inside the transformation.
    """
    node_config_ok = problem.node_config_ok
    edge_config_ok = problem.edge_config_ok
    return check_labeling(
        semigraph,
        labeling,
        lambda node, config: node_config_ok(config),
        lambda edge, config, rank: edge_config_ok(config, rank),
        require_complete,
    )


#: The label :func:`check_labeling` reads for an unlabeled half-edge.
_UNLABELED = object()


def check_labeling(
    semigraph: SemiGraph,
    labeling: HalfEdgeLabeling,
    node_ok: Callable[[NodeId, list], bool],
    edge_ok: Callable[[EdgeId, list, int], bool],
    require_complete: bool = True,
    node_message: str = "node configuration not allowed",
    edge_message: str = "edge configuration not allowed",
) -> VerificationResult:
    """The one verifier walk: check every completely labeled node and edge.

    ``node_ok(node, labels)`` and ``edge_ok(edge, labels, rank)`` decide
    a configuration, handed over as the list of its labels in gathered
    order.  With ``require_complete`` every unlabeled half-edge is
    reported too; either way a node or edge with an unlabeled half-edge
    is not checked.
    """
    label_of = labeling.as_mapping().get
    endpoints_of = semigraph.edge_endpoints()
    node_labels: dict[NodeId, list] = {node: [] for node in semigraph.nodes}
    partial_nodes: set[NodeId] = set()
    unlabeled: list[Violation] = []
    edge_violations: list[Violation] = []
    # Node and edge violations are listed in ``semigraph.nodes`` and
    # ``semigraph.edges`` order.
    for edge in semigraph.edges:
        endpoints = endpoints_of[edge]
        edge_labels = []
        for node in endpoints:
            label = label_of((node, edge), _UNLABELED)
            if label is _UNLABELED:
                partial_nodes.add(node)
                if require_complete:
                    unlabeled.append(Violation(
                        "unlabeled", (node, edge), (), "half-edge has no label"
                    ))
            else:
                edge_labels.append(label)
                node_labels[node].append(label)
        if len(edge_labels) == len(endpoints) and not edge_ok(
            edge, edge_labels, len(endpoints)
        ):
            edge_violations.append(Violation(
                "edge", edge, canonical_multiset(edge_labels), edge_message
            ))

    node_violations: list[Violation] = []
    for node, labels in node_labels.items():
        if node not in partial_nodes and not node_ok(node, labels):
            node_violations.append(Violation(
                "node", node, canonical_multiset(labels), node_message
            ))

    violations = unlabeled + node_violations + edge_violations
    return VerificationResult(ok=not violations, violations=violations)

"""Sequential solvers for the list variants ``Π*`` and ``Π×``.

Inside the transformation, each connected component of the "second part" of
the decomposition is gathered at its highest node, which then solves the
residual list problem *sequentially* with full knowledge of the component
(Algorithm 2 line 2 and Algorithm 4 line 2).  The transformation applies to
the classes P1 and P2 because their sequential 1-hop rules still work on a
correctly, partially solved instance, so these list solvers are the P1/P2
rules of :mod:`repro.core.slocal` run over a list instance, with the labels
its lists fix outside the component in each rule's view:

* :class:`EdgeListSolver` runs a P1 rule node by node over a ``Π×``
  instance — :class:`MISEdgeListSolver` and :class:`ColoringEdgeListSolver`
  for the Theorem 12 pipeline;
* :class:`NodeListSolver` runs a P2 rule edge by edge over a ``Π*``
  instance — :class:`EdgeColoringNodeListSolver` (the labelling process of
  Lemma 16) and :class:`MatchingNodeListSolver` (Lemma 17);
* :class:`BacktrackingListSolver` — a generic exhaustive solver over a
  finite candidate label set, used as an independent cross-check on small
  components in the test-suite.

:data:`~repro.core.slocal.P1_ORACLES` and
:data:`~repro.core.slocal.P2_ORACLES` decide which problems have a solver.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.slocal import (
    P1_ORACLES,
    P2_ORACLES,
    EdgeOracle,
    NodeOracle,
    coloring_oracle,
    edge_coloring_oracle,
    matching_oracle,
    mis_oracle,
    solve_edge_sequential,
    solve_node_sequential,
)
from repro.problems.lists import EdgeListInstance, NodeListInstance
from repro.semigraph import HalfEdgeLabeling, SemiGraph
from repro.semigraph.labeling import canonical_multiset
from repro.semigraph.semigraph import HalfEdge


class SequentialSolverError(RuntimeError):
    """Raised when a problem has no sequential rule or a search finds no solution."""


class EdgeListSolver:
    """Solves ``Π×`` instances with a P1 rule, processing nodes in order."""

    rule: NodeOracle

    def __init__(self, rule: NodeOracle | None = None) -> None:
        if rule is not None:
            self.rule = rule

    def solve(self, instance: EdgeListInstance) -> HalfEdgeLabeling:
        """Label every half-edge of the instance's semi-graph."""
        outside = {edge: lst.fixed for edge, lst in instance.edge_lists.items()}
        return solve_node_sequential(instance.semigraph, self.rule, outside=outside)


class NodeListSolver:
    """Solves ``Π*`` instances with a P2 rule, processing edges in order."""

    rule: EdgeOracle

    def __init__(self, rule: EdgeOracle | None = None) -> None:
        if rule is not None:
            self.rule = rule

    def solve(self, instance: NodeListInstance) -> HalfEdgeLabeling:
        """Label every half-edge of the instance's semi-graph."""
        outside = {node: lst.fixed for node, lst in instance.node_lists.items()}
        return solve_edge_sequential(instance.semigraph, self.rule, outside=outside)


# The four problems of Section 5 keep a solver class each, so that their
# calls can be told apart (e.g. by a profiler wrapping ``<Class>.solve``).
class MISEdgeListSolver(EdgeListSolver):
    rule = staticmethod(mis_oracle)


class ColoringEdgeListSolver(EdgeListSolver):
    rule = staticmethod(coloring_oracle)


class EdgeColoringNodeListSolver(NodeListSolver):
    rule = staticmethod(edge_coloring_oracle)


class MatchingNodeListSolver(NodeListSolver):
    rule = staticmethod(matching_oracle)


# ----------------------------------------------------------------------
# Generic backtracking solver (cross-check on small components)
# ----------------------------------------------------------------------
class BacktrackingListSolver:
    """Exhaustive search over a finite candidate label set.

    Works for both list variants.  The search assigns labels half-edge by
    half-edge and checks a node or edge constraint as soon as all of its
    half-edges are labeled.  Exponential in the component size — intended
    only for small components, e.g. as an independent correctness oracle in
    tests.
    """

    def __init__(self, candidate_labels: Iterable[Any]) -> None:
        self.candidate_labels = list(candidate_labels)

    # -- public API ----------------------------------------------------
    def solve_node_list(self, instance: NodeListInstance) -> HalfEdgeLabeling:
        """Solve a ``Π*`` instance by exhaustive search."""
        return self._search(
            instance.semigraph,
            node_check=lambda node, labels: instance.list_for(node).allows(labels),
            edge_check=lambda edge, labels: instance.problem.edge_config_ok(
                labels, instance.semigraph.rank(edge)
            ),
        )

    def solve_edge_list(self, instance: EdgeListInstance) -> HalfEdgeLabeling:
        """Solve a ``Π×`` instance by exhaustive search."""
        return self._search(
            instance.semigraph,
            node_check=lambda node, labels: instance.problem.node_config_ok(labels),
            edge_check=lambda edge, labels: instance.list_for(edge).allows(labels),
        )

    # -- implementation --------------------------------------------------
    def _search(
        self,
        semigraph: SemiGraph,
        node_check: Callable[[Any, tuple], bool],
        edge_check: Callable[[Any, tuple], bool],
    ) -> HalfEdgeLabeling:
        half_edges = sorted(semigraph.half_edges(), key=repr)
        assignment: dict[HalfEdge, Any] = {}

        def config(half_edge_list: list[HalfEdge]) -> tuple | None:
            labels = []
            for h in half_edge_list:
                if h not in assignment:
                    return None
                labels.append(assignment[h])
            return canonical_multiset(labels)

        def consistent(last: HalfEdge) -> bool:
            node_labels = config(semigraph.half_edges_of_node(last.node))
            if node_labels is not None and not node_check(last.node, node_labels):
                return False
            edge_labels = config(semigraph.half_edges_of_edge(last.edge))
            if edge_labels is not None and not edge_check(last.edge, edge_labels):
                return False
            return True

        def backtrack(index: int) -> bool:
            if index == len(half_edges):
                return True
            half_edge = half_edges[index]
            for label in self.candidate_labels:
                assignment[half_edge] = label
                if consistent(half_edge) and backtrack(index + 1):
                    return True
                del assignment[half_edge]
            return False

        if not backtrack(0):
            raise SequentialSolverError(
                "the backtracking solver found no valid completion"
            )
        return HalfEdgeLabeling(assignment)


# ----------------------------------------------------------------------
# Default solver selection
# ----------------------------------------------------------------------
def default_node_list_solver(problem) -> NodeListSolver:
    """The ``Π*`` solver for ``problem``: its P2 rule."""
    return _solver_for(NodeListSolver, P2_ORACLES, problem)


def default_edge_list_solver(problem) -> EdgeListSolver:
    """The ``Π×`` solver for ``problem``: its P1 rule."""
    return _solver_for(EdgeListSolver, P1_ORACLES, problem)


def _solver_for(kind: type, rules: dict, problem) -> Any:
    rule = rules.get(problem.name)
    if rule is None:
        raise SequentialSolverError(
            f"no sequential rule for problem {problem.name!r} ({kind.__name__})"
        )
    # A rule with a named class runs through it; any other rule in the
    # table runs in the generic solver.
    for named in kind.__subclasses__():
        if named.rule is rule:
            return named()
    return kind(rule)

"""The P1/P2 rules as list solvers on generated, partially solved instances.

Each case is the construction of the list-variant cells with a seeded
random split in place of the half split: the truly local baseline labels
one part of a generated graph, and ``default_*_list_solver`` solves the
list instance the partial labeling induces on the rest.
"""

import random

import networkx as nx
import pytest

from repro.baselines.adapters import (
    DegPlusOneColoringAlgorithm,
    EdgeColoringAlgorithm,
    MISAlgorithm,
    MaximalMatchingAlgorithm,
)
from repro.core.sequential import (
    EdgeListSolver,
    default_edge_list_solver,
    default_node_list_solver,
)
from repro.core.slocal import P1_ORACLES, mis_oracle, solve_node_sequential
from repro.generators import forest_union, random_tree
from repro.problems import MaximalIndependentSetProblem, verify_solution
from repro.problems.classic import (
    is_deg_plus_one_coloring,
    is_edge_degree_plus_one_coloring,
    is_maximal_independent_set,
    is_maximal_matching,
)
from repro.problems.lists import (
    build_edge_list_instance,
    build_node_list_instance,
    verify_edge_list_solution,
    verify_node_list_solution,
)
from repro.problems.mis import IN_MIS, OUT, POINTER
from repro.semigraph import (
    HalfEdge,
    HalfEdgeLabeling,
    restrict_to_edges,
    restrict_to_nodes,
    semigraph_from_graph,
)
from repro.semigraph.builders import edge_id_for

CASES = 100

# (adapter, node-list form Π*?, classic verifier)
RULES = {
    "mis": (MISAlgorithm, False, is_maximal_independent_set),
    "deg+1-coloring": (DegPlusOneColoringAlgorithm, False, is_deg_plus_one_coloring),
    "edge-coloring": (EdgeColoringAlgorithm, True, is_edge_degree_plus_one_coloring),
    "matching": (
        MaximalMatchingAlgorithm,
        True,
        lambda graph, classic: is_maximal_matching(graph, [tuple(e) for e in classic]),
    ),
}


@pytest.mark.parametrize("name", sorted(RULES))
def test_rule_completes_a_random_partial_solution(name):
    factory, node_list, classic_ok = RULES[name]
    restrict = restrict_to_edges if node_list else restrict_to_nodes
    build = build_node_list_instance if node_list else build_edge_list_instance
    verify_list = verify_node_list_solution if node_list else verify_edge_list_solution
    for seed in range(CASES):
        rng = random.Random(f"{name}/{seed}")
        n = rng.randint(2, 40)
        graph = forest_union(n, 2, seed=seed) if node_list else random_tree(n, seed=seed)
        semigraph = semigraph_from_graph(graph)
        units = sorted(semigraph.edges if node_list else semigraph.nodes, key=repr)
        first = {unit for unit in units if rng.random() < 0.5}
        adapter = factory()
        partial = HalfEdgeLabeling()
        if first:
            partial, _ = adapter.solve_semigraph(restrict(semigraph, first))
        instance = build(
            adapter.problem, semigraph, restrict(semigraph, set(units) - first), partial
        )
        solver = (default_node_list_solver if node_list else default_edge_list_solver)(
            adapter.problem
        )
        residual = solver.solve(instance)
        context = f"{name} n={n} seed={seed}"
        assert verify_list(instance, residual).ok, context
        merged = partial.merge(residual)
        assert verify_solution(adapter.problem, semigraph, merged).ok, context
        assert classic_ok(graph, adapter.problem.to_classic(semigraph, merged)), context


def test_outside_mis_label_blocks_the_node():
    """An ``M`` fixed across a boundary edge keeps the node out of the MIS."""
    semigraph = restrict_to_nodes(semigraph_from_graph(nx.path_graph(3)), {1})
    left, right = edge_id_for(0, 1), edge_id_for(1, 2)
    free = solve_node_sequential(semigraph, mis_oracle)
    assert free[HalfEdge(1, left)] == free[HalfEdge(1, right)] == IN_MIS
    blocked = solve_node_sequential(semigraph, mis_oracle, outside={left: (IN_MIS,)})
    assert blocked[HalfEdge(1, left)] == POINTER
    assert blocked[HalfEdge(1, right)] == OUT


def test_a_rule_without_a_solver_class_runs_in_the_generic_solver(monkeypatch):
    """Adding a problem takes one entry in the rule table, no solver class."""

    class RenamedMIS(MaximalIndependentSetProblem):
        name = "renamed-mis"

    monkeypatch.setitem(P1_ORACLES, RenamedMIS.name, lambda view: mis_oracle(view))
    problem = RenamedMIS()
    solver = default_edge_list_solver(problem)
    assert type(solver) is EdgeListSolver
    semigraph = semigraph_from_graph(random_tree(30, seed=3))
    instance = build_edge_list_instance(problem, semigraph, semigraph, HalfEdgeLabeling())
    assert verify_edge_list_solution(instance, solver.solve(instance)).ok

"""Tests for the sequential list solvers (Lemmas 16, 17 and the greedy solvers)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequential import (
    BacktrackingListSolver,
    ColoringEdgeListSolver,
    EdgeColoringNodeListSolver,
    MISEdgeListSolver,
    MatchingNodeListSolver,
    SequentialSolverError,
    default_edge_list_solver,
    default_node_list_solver,
)
from repro.generators import random_tree
from repro.problems import (
    DegreePlusOneColoring,
    EdgeDegreePlusOneEdgeColoring,
    MaximalIndependentSetProblem,
    MaximalMatchingProblem,
)
from repro.problems.lists import (
    build_edge_list_instance,
    build_node_list_instance,
    verify_edge_list_solution,
    verify_node_list_solution,
)
from repro.problems.mis import IN_MIS, OUT, POINTER
from repro.semigraph import restrict_to_edges, restrict_to_nodes, semigraph_from_graph
from repro.semigraph.builders import edge_id_for

EDGE_COLORING = EdgeDegreePlusOneEdgeColoring()
MATCHING = MaximalMatchingProblem()
MIS = MaximalIndependentSetProblem()
COLORING = DegreePlusOneColoring()


def split_instance(problem, graph, inner_nodes, solve_outer):
    """Solve the problem on the outer part and build the residual instance.

    ``solve_outer(sub_semigraph) -> labeling`` produces the partial solution
    on the sub-semi-graph spanned by the outer nodes; the returned instance
    is the edge-list instance on the inner part.
    """
    semigraph = semigraph_from_graph(graph)
    inner = restrict_to_nodes(semigraph, inner_nodes)
    outer = restrict_to_nodes(semigraph, set(graph.nodes()) - set(inner_nodes))
    partial = solve_outer(outer)
    return semigraph, inner, partial


class TestEdgeColoringNodeListSolver:
    def test_fresh_instance_on_star(self):
        semigraph = semigraph_from_graph(nx.star_graph(5))
        from repro.semigraph import HalfEdgeLabeling

        instance = build_node_list_instance(
            EDGE_COLORING, semigraph, semigraph, HalfEdgeLabeling()
        )
        labeling = EdgeColoringNodeListSolver().solve(instance)
        assert verify_node_list_solution(instance, labeling).ok
        # The star's edges all share the centre, so they need distinct colours.
        colours = EDGE_COLORING.to_classic(semigraph, labeling)
        assert len(set(colours.values())) == 5

    def test_completion_after_partial_solution(self):
        # Colour half of a random tree's edges, then complete the rest.
        tree = random_tree(40, seed=8)
        semigraph = semigraph_from_graph(tree)
        edges = sorted(semigraph.edges, key=repr)
        first, second = set(edges[::2]), set(edges[1::2])
        first_semigraph = restrict_to_edges(semigraph, first)
        from repro.semigraph import HalfEdgeLabeling

        initial = build_node_list_instance(
            EDGE_COLORING, semigraph, first_semigraph, HalfEdgeLabeling()
        )
        partial = EdgeColoringNodeListSolver().solve(initial)
        second_semigraph = restrict_to_edges(semigraph, second)
        residual = build_node_list_instance(
            EDGE_COLORING, semigraph, second_semigraph, partial
        )
        completion = EdgeColoringNodeListSolver().solve(residual)
        assert verify_node_list_solution(residual, completion).ok
        # The combined labeling is a valid full solution.
        from repro.problems import verify_solution

        full = partial.merge(completion)
        assert verify_solution(EDGE_COLORING, semigraph, full).ok

    def test_rank_one_edges_receive_dummy(self):
        semigraph = restrict_to_nodes(semigraph_from_graph(nx.path_graph(3)), {1})
        from repro.semigraph import HalfEdgeLabeling

        instance = build_node_list_instance(
            EDGE_COLORING, semigraph, semigraph, HalfEdgeLabeling()
        )
        labeling = EdgeColoringNodeListSolver().solve(instance)
        assert verify_node_list_solution(instance, labeling).ok


class TestMatchingNodeListSolver:
    def test_fresh_instance_on_path(self):
        semigraph = semigraph_from_graph(nx.path_graph(6))
        from repro.semigraph import HalfEdgeLabeling

        instance = build_node_list_instance(
            MATCHING, semigraph, semigraph, HalfEdgeLabeling()
        )
        labeling = MatchingNodeListSolver().solve(instance)
        assert verify_node_list_solution(instance, labeling).ok
        matching = MATCHING.to_classic(semigraph, labeling)
        assert len(matching) >= 2  # a maximal matching of P6 has at least 2 edges

    def test_completion_respects_outside_matches(self):
        # Stars: solve the outer star first, then the path between centres.
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, 2), (2, 3)])
        semigraph = semigraph_from_graph(graph)
        middle = restrict_to_edges(semigraph, {edge_id_for(1, 2)})
        outer = restrict_to_edges(
            semigraph, {edge_id_for(0, 1), edge_id_for(2, 3)}
        )
        partial = MATCHING.from_classic(outer, {edge_id_for(0, 1), edge_id_for(2, 3)})
        instance = build_node_list_instance(MATCHING, semigraph, middle, partial)
        labeling = MatchingNodeListSolver().solve(instance)
        assert verify_node_list_solution(instance, labeling).ok
        # Both endpoints of the middle edge are already matched, so the
        # middle edge must not be matched again.
        assert MATCHING.to_classic(semigraph, labeling.merge(partial)) == {
            edge_id_for(0, 1),
            edge_id_for(2, 3),
        }


class TestMISEdgeListSolver:
    def outer_mis(self, outer):
        mis_nodes = {v for v in outer.nodes if outer.degree(v) >= 0}
        # Put every outer node into the MIS only if that is independent.
        underlying = outer.underlying_graph()
        chosen = set()
        for node in sorted(underlying.nodes()):
            if not any(nbr in chosen for nbr in underlying.neighbors(node)):
                chosen.add(node)
        return MIS.from_classic(outer, chosen)

    def test_solver_respects_outside_mis(self):
        tree = nx.path_graph(6)
        semigraph, inner, partial = split_instance(
            MIS, tree, {2, 3}, self.outer_mis
        )
        instance = build_edge_list_instance(MIS, semigraph, inner, partial)
        labeling = MISEdgeListSolver().solve(instance)
        assert verify_edge_list_solution(instance, labeling).ok

    def test_forced_out_by_two_sides(self):
        # Path 0-1-2 where both 0 and 2 are already in the MIS: node 1 must
        # stay out and point at one of them.
        tree = nx.path_graph(3)
        semigraph = semigraph_from_graph(tree)
        inner = restrict_to_nodes(semigraph, {1})
        outer = restrict_to_nodes(semigraph, {0, 2})
        partial = MIS.from_classic(outer, {0, 2})
        instance = build_edge_list_instance(MIS, semigraph, inner, partial)
        labeling = MISEdgeListSolver().solve(instance)
        assert verify_edge_list_solution(instance, labeling).ok
        labels = {labeling[h] for h in inner.half_edges()}
        assert IN_MIS not in labels
        assert POINTER in labels

    def test_free_node_joins(self):
        tree = nx.path_graph(3)
        semigraph = semigraph_from_graph(tree)
        inner = restrict_to_nodes(semigraph, {1})
        outer = restrict_to_nodes(semigraph, {0, 2})
        # Outer nodes are NOT in the MIS but are each other's... they have no
        # neighbours inside the outer part, so label them OUT via a pointer
        # towards the inner node is not allowed; instead build the instance
        # where the outer labels say OUT (the inner node must then join).
        from repro.semigraph import HalfEdgeLabeling

        partial = HalfEdgeLabeling(
            {
                (0, edge_id_for(0, 1)): OUT,
                (2, edge_id_for(1, 2)): OUT,
            }
        )
        instance = build_edge_list_instance(MIS, semigraph, inner, partial)
        labeling = MISEdgeListSolver().solve(instance)
        assert verify_edge_list_solution(instance, labeling).ok
        assert all(labeling[h] == IN_MIS for h in inner.half_edges())


class TestColoringEdgeListSolver:
    def test_respects_outside_colours(self):
        tree = nx.star_graph(4)
        semigraph = semigraph_from_graph(tree)
        inner = restrict_to_nodes(semigraph, {0})  # the centre
        outer = restrict_to_nodes(semigraph, {1, 2, 3, 4})
        partial = COLORING.from_classic(outer, {1: 1, 2: 2, 3: 1, 4: 2})
        instance = build_edge_list_instance(COLORING, semigraph, inner, partial)
        labeling = ColoringEdgeListSolver().solve(instance)
        assert verify_edge_list_solution(instance, labeling).ok
        colour = COLORING.to_classic(semigraph, labeling.merge(partial))[0]
        assert colour == 3

    def test_colour_stays_within_degree_plus_one(self):
        tree = random_tree(30, seed=12)
        semigraph = semigraph_from_graph(tree)
        from repro.semigraph import HalfEdgeLabeling

        instance = build_edge_list_instance(
            COLORING, semigraph, semigraph, HalfEdgeLabeling()
        )
        labeling = ColoringEdgeListSolver().solve(instance)
        assert verify_edge_list_solution(instance, labeling).ok


class TestBacktrackingSolver:
    def test_agrees_with_greedy_on_small_mis_instance(self):
        tree = nx.path_graph(4)
        semigraph = semigraph_from_graph(tree)
        from repro.semigraph import HalfEdgeLabeling

        instance = build_edge_list_instance(MIS, semigraph, semigraph, HalfEdgeLabeling())
        solver = BacktrackingListSolver([IN_MIS, POINTER, OUT])
        labeling = solver.solve_edge_list(instance)
        assert verify_edge_list_solution(instance, labeling).ok

    def test_small_matching_node_list(self):
        graph = nx.path_graph(3)
        semigraph = semigraph_from_graph(graph)
        from repro.problems.matching import MATCHED, POINTER as MP, UNMATCHED
        from repro.problems.base import DUMMY
        from repro.semigraph import HalfEdgeLabeling

        instance = build_node_list_instance(
            MATCHING, semigraph, semigraph, HalfEdgeLabeling()
        )
        solver = BacktrackingListSolver([MATCHED, MP, UNMATCHED, DUMMY])
        labeling = solver.solve_node_list(instance)
        assert verify_node_list_solution(instance, labeling).ok

    def test_unsolvable_instance_raises(self):
        graph = nx.path_graph(2)
        semigraph = semigraph_from_graph(graph)
        from repro.semigraph import HalfEdgeLabeling

        instance = build_edge_list_instance(MIS, semigraph, semigraph, HalfEdgeLabeling())
        solver = BacktrackingListSolver([POINTER])  # P-only labels can never work
        with pytest.raises(SequentialSolverError):
            solver.solve_edge_list(instance)


class TestDefaultSolverRegistry:
    def test_node_list_defaults(self):
        assert isinstance(
            default_node_list_solver(EDGE_COLORING), EdgeColoringNodeListSolver
        )
        assert isinstance(default_node_list_solver(MATCHING), MatchingNodeListSolver)
        with pytest.raises(SequentialSolverError):
            default_node_list_solver(MIS)

    def test_edge_list_defaults(self):
        assert isinstance(default_edge_list_solver(MIS), MISEdgeListSolver)
        assert isinstance(default_edge_list_solver(COLORING), ColoringEdgeListSolver)
        with pytest.raises(SequentialSolverError):
            default_edge_list_solver(MATCHING)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=3, max_value=30), st.integers(min_value=0, max_value=2000))
def test_property_lemma_16_on_fresh_trees(n, seed):
    """The Lemma 16 process always produces a valid (edge-degree+1) colouring."""
    from repro.problems import verify_solution
    from repro.problems.classic import is_edge_degree_plus_one_coloring
    from repro.semigraph import HalfEdgeLabeling

    tree = random_tree(n, seed=seed)
    semigraph = semigraph_from_graph(tree)
    instance = build_node_list_instance(
        EDGE_COLORING, semigraph, semigraph, HalfEdgeLabeling()
    )
    labeling = EdgeColoringNodeListSolver().solve(instance)
    assert verify_solution(EDGE_COLORING, semigraph, labeling).ok
    assert is_edge_degree_plus_one_coloring(tree, EDGE_COLORING.to_classic(semigraph, labeling))

"""Tests for the (edge-degree+1)-edge colouring encoding of Section 5.1."""

import networkx as nx
import pytest

from repro.problems import DUMMY, EdgeDegreePlusOneEdgeColoring, verify_solution
from repro.problems.classic import (
    edge_degree,
    is_edge_degree_plus_one_coloring,
    is_proper_edge_coloring,
)
from repro.semigraph import HalfEdgeLabeling, semigraph_from_graph
from repro.semigraph.builders import edge_id_for

PROBLEM = EdgeDegreePlusOneEdgeColoring()


class TestNodeConstraint:
    def test_empty_configuration_is_valid(self):
        assert PROBLEM.node_config_ok(())

    def test_all_dummies_is_valid(self):
        assert PROBLEM.node_config_ok((DUMMY, DUMMY))

    def test_distinct_colours_within_degree_bound(self):
        assert PROBLEM.node_config_ok(((1, 5), (2, 7), (2, 3)))

    def test_degree_part_exceeding_pair_count_rejected(self):
        # Three pairs, but a degree part of 4 > 3.
        assert not PROBLEM.node_config_ok(((4, 5), (2, 7), (2, 3)))

    def test_repeated_colour_part_rejected(self):
        assert not PROBLEM.node_config_ok(((1, 5), (2, 5)))

    def test_dummies_do_not_count_towards_degree_parts(self):
        # Two pairs plus two dummies: degree parts must be at most 2.
        assert PROBLEM.node_config_ok(((2, 5), (1, 7), DUMMY, DUMMY))
        assert not PROBLEM.node_config_ok(((3, 5), (1, 7), DUMMY, DUMMY))

    def test_malformed_labels_rejected(self):
        assert not PROBLEM.node_config_ok(((0, 5),))
        assert not PROBLEM.node_config_ok((("x", 5),))
        assert not PROBLEM.node_config_ok((42,))


class TestEdgeConstraint:
    def test_rank_zero(self):
        assert PROBLEM.edge_config_ok((), 0)
        assert not PROBLEM.edge_config_ok(((1, 1),), 0)

    def test_rank_one_requires_dummy(self):
        assert PROBLEM.edge_config_ok((DUMMY,), 1)
        assert not PROBLEM.edge_config_ok(((1, 1),), 1)

    def test_rank_two_matching_colour_and_degree_sum(self):
        assert PROBLEM.edge_config_ok(((2, 3), (2, 3)), 2)
        assert PROBLEM.edge_config_ok(((1, 1), (1, 1)), 2)

    def test_rank_two_colour_mismatch_rejected(self):
        assert not PROBLEM.edge_config_ok(((2, 3), (2, 4)), 2)

    def test_rank_two_degree_sum_too_small_rejected(self):
        # 1 + 1 = 2 < 3 + 1.
        assert not PROBLEM.edge_config_ok(((1, 3), (1, 3)), 2)

    def test_rank_two_with_dummy_rejected(self):
        assert not PROBLEM.edge_config_ok((DUMMY, (1, 1)), 2)


class TestClassicConversions:
    def test_roundtrip_on_path(self):
        graph = nx.path_graph(5)
        semigraph = semigraph_from_graph(graph)
        classic = {edge_id_for(i, i + 1): (i % 2) + 1 for i in range(4)}
        labeling = PROBLEM.from_classic(semigraph, classic)
        assert verify_solution(PROBLEM, semigraph, labeling).ok
        assert PROBLEM.to_classic(semigraph, labeling) == classic

    def test_from_classic_on_star(self):
        graph = nx.star_graph(4)
        semigraph = semigraph_from_graph(graph)
        classic = {edge_id_for(0, leaf): leaf for leaf in range(1, 5)}
        labeling = PROBLEM.from_classic(semigraph, classic)
        assert verify_solution(PROBLEM, semigraph, labeling).ok

    def test_from_classic_assigns_dummy_to_rank_one(self):
        from repro.semigraph import restrict_to_nodes

        graph = nx.path_graph(3)
        semigraph = restrict_to_nodes(semigraph_from_graph(graph), {1})
        labeling = PROBLEM.from_classic(semigraph, {})
        for edge in semigraph.edges_of_rank(1):
            (node,) = semigraph.endpoints(edge)
            assert labeling[(node, edge)] == DUMMY

    def test_to_classic_rejects_inconsistent_labels(self):
        graph = nx.path_graph(2)
        semigraph = semigraph_from_graph(graph)
        edge = edge_id_for(0, 1)
        labeling = HalfEdgeLabeling(
            {(0, edge): (1, 1), (1, edge): (1, 2)}
        )
        with pytest.raises(ValueError):
            PROBLEM.to_classic(semigraph, labeling)

    def test_verification_catches_improper_colouring(self):
        graph = nx.path_graph(3)
        semigraph = semigraph_from_graph(graph)
        classic = {edge_id_for(0, 1): 1, edge_id_for(1, 2): 1}
        labeling = PROBLEM.from_classic(semigraph, classic)
        result = verify_solution(PROBLEM, semigraph, labeling)
        assert not result.ok
        assert any(v.kind == "node" for v in result.violations)

    def test_verification_catches_colour_above_edge_degree(self):
        graph = nx.path_graph(2)  # single edge, edge-degree 0, budget 1
        semigraph = semigraph_from_graph(graph)
        classic = {edge_id_for(0, 1): 2}
        labeling = PROBLEM.from_classic(semigraph, classic)
        assert not verify_solution(PROBLEM, semigraph, labeling).ok


class TestClassicVerifiers:
    def test_edge_degree(self):
        graph = nx.star_graph(3)
        assert edge_degree(graph, (0, 1)) == 2

    def test_proper_and_bounded(self):
        graph = nx.path_graph(4)
        colours = {(0, 1): 1, (1, 2): 2, (2, 3): 1}
        assert is_proper_edge_coloring(graph, colours)
        assert is_edge_degree_plus_one_coloring(graph, colours)

    def test_rejects_missing_edge(self):
        graph = nx.path_graph(3)
        assert not is_proper_edge_coloring(graph, {(0, 1): 1})

    def test_rejects_adjacent_same_colour(self):
        graph = nx.path_graph(3)
        assert not is_proper_edge_coloring(graph, {(0, 1): 1, (1, 2): 1})

    def test_rejects_colour_above_budget(self):
        graph = nx.path_graph(3)
        colours = {(0, 1): 1, (1, 2): 3}  # edge-degree+1 = 2
        assert is_proper_edge_coloring(graph, colours)
        assert not is_edge_degree_plus_one_coloring(graph, colours)

    def test_accepts_reversed_edge_keys(self):
        graph = nx.path_graph(3)
        colours = {(1, 0): 1, (2, 1): 2}
        assert is_edge_degree_plus_one_coloring(graph, colours)

"""Tests for the (deg+1)- and (Δ+1)-vertex colouring encodings."""

import networkx as nx
import pytest

from repro.problems import DegreePlusOneColoring, DeltaPlusOneColoring, verify_solution
from repro.problems.classic import (
    is_deg_plus_one_coloring,
    is_delta_plus_one_coloring,
    is_proper_vertex_coloring,
)
from repro.semigraph import HalfEdgeLabeling, semigraph_from_graph

DEG = DegreePlusOneColoring()


class TestDegreePlusOneConstraints:
    def test_node_same_colour_within_bound(self):
        assert DEG.node_config_ok((2, 2, 2))

    def test_node_colour_above_degree_plus_one_rejected(self):
        assert not DEG.node_config_ok((4, 4))  # degree 2, bound 3

    def test_node_inconsistent_colours_rejected(self):
        assert not DEG.node_config_ok((1, 2))

    def test_node_empty_is_valid(self):
        assert DEG.node_config_ok(())

    def test_node_non_integer_rejected(self):
        assert not DEG.node_config_ok(("red",))
        assert not DEG.node_config_ok((0,))

    def test_edge_distinct_colours(self):
        assert DEG.edge_config_ok((1, 2), 2)
        assert not DEG.edge_config_ok((3, 3), 2)

    def test_edge_rank_one_any_colour(self):
        assert DEG.edge_config_ok((5,), 1)
        assert not DEG.edge_config_ok(("x",), 1)

    def test_edge_rank_zero(self):
        assert DEG.edge_config_ok((), 0)


class TestDeltaPlusOne:
    def test_bound_is_global(self):
        problem = DeltaPlusOneColoring(3)
        assert problem.node_config_ok((3,))
        assert not problem.node_config_ok((4,))
        # A degree-5 node may still use colour 3 (the global bound applies).
        assert problem.node_config_ok((3,) * 5)

    def test_invalid_palette_size(self):
        with pytest.raises(ValueError):
            DeltaPlusOneColoring(0)


class TestConversions:
    def test_roundtrip(self):
        graph = nx.path_graph(4)
        semigraph = semigraph_from_graph(graph)
        classic = {0: 1, 1: 2, 2: 1, 3: 2}
        labeling = DEG.from_classic(semigraph, classic)
        assert verify_solution(DEG, semigraph, labeling).ok
        assert DEG.to_classic(semigraph, labeling) == classic

    def test_isolated_node_gets_colour_one(self):
        graph = nx.Graph()
        graph.add_node(0)
        semigraph = semigraph_from_graph(graph)
        labeling = DEG.from_classic(semigraph, {0: 7})
        assert DEG.to_classic(semigraph, labeling) == {0: 1}

    def test_to_classic_rejects_inconsistent_node(self):
        graph = nx.path_graph(3)
        semigraph = semigraph_from_graph(graph)
        labeling = DEG.from_classic(semigraph, {0: 1, 1: 2, 2: 1})
        # Corrupt one half-edge of node 1.
        bad = HalfEdgeLabeling(dict(labeling.items()))
        edge = next(iter(semigraph.incident_edges(0)))
        corrupted = {h: lab for h, lab in bad.items()}
        corrupted[(1, edge)] = 3
        with pytest.raises(ValueError):
            DEG.to_classic(semigraph, HalfEdgeLabeling(corrupted))

    def test_verification_catches_adjacent_same_colour(self):
        graph = nx.path_graph(3)
        semigraph = semigraph_from_graph(graph)
        labeling = DEG.from_classic(semigraph, {0: 1, 1: 1, 2: 2})
        assert not verify_solution(DEG, semigraph, labeling).ok


class TestClassicVerifiers:
    def test_proper(self):
        graph = nx.cycle_graph(4)
        assert is_proper_vertex_coloring(graph, {0: 1, 1: 2, 2: 1, 3: 2})
        assert not is_proper_vertex_coloring(graph, {0: 1, 1: 1, 2: 1, 3: 2})
        assert not is_proper_vertex_coloring(graph, {0: 1})

    def test_deg_plus_one(self):
        graph = nx.star_graph(3)
        assert is_deg_plus_one_coloring(graph, {0: 4, 1: 1, 2: 1, 3: 1})
        # A leaf (degree 1) may not use colour 3.
        assert not is_deg_plus_one_coloring(graph, {0: 4, 1: 3, 2: 1, 3: 1})

    def test_delta_plus_one(self):
        graph = nx.path_graph(4)
        assert is_delta_plus_one_coloring(graph, {0: 1, 1: 2, 2: 3, 3: 1})
        assert not is_delta_plus_one_coloring(graph, {0: 1, 1: 2, 2: 4, 3: 1})

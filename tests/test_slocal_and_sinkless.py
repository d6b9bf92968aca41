"""Tests for the SLOCAL(1) view of classes P1/P2 and for sinkless orientation."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slocal import (
    P1_ORACLES,
    P2_ORACLES,
    SLocalError,
    coloring_oracle,
    edge_coloring_oracle,
    matching_oracle,
    membership_class,
    mis_oracle,
    solve_edge_sequential,
    solve_node_sequential,
)
from repro.generators import balanced_regular_tree, random_tree
from repro.problems import (
    DegreePlusOneColoring,
    EdgeDegreePlusOneEdgeColoring,
    MaximalIndependentSetProblem,
    MaximalMatchingProblem,
    verify_solution,
)
from repro.problems.classic import (
    is_deg_plus_one_coloring,
    is_edge_degree_plus_one_coloring,
    is_maximal_independent_set,
    is_maximal_matching,
)
from repro.problems.sinkless_orientation import (
    IN,
    OUT,
    SinklessOrientationProblem,
    greedy_sinkless_orientation,
    is_sinkless_orientation,
)
from repro.semigraph import HalfEdgeLabeling, semigraph_from_graph

MIS = MaximalIndependentSetProblem()
COLORING = DegreePlusOneColoring()
MATCHING = MaximalMatchingProblem()
EDGE_COLORING = EdgeDegreePlusOneEdgeColoring()


def shuffled(items, seed):
    items = sorted(items, key=repr)
    random.Random(seed).shuffle(items)
    return items


class TestP1Solvers:
    """MIS and (deg+1)-colouring admit 1-hop sequential solvers (class P1)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mis_under_adversarial_orders(self, seed):
        graph = random_tree(60, seed=5)
        semigraph = semigraph_from_graph(graph)
        order = shuffled(semigraph.nodes, seed)
        labeling = solve_node_sequential(semigraph, mis_oracle, order=order)
        assert verify_solution(MIS, semigraph, labeling).ok
        assert is_maximal_independent_set(graph, MIS.to_classic(semigraph, labeling))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_coloring_under_adversarial_orders(self, seed):
        graph = balanced_regular_tree(4, 4)
        semigraph = semigraph_from_graph(graph)
        order = shuffled(semigraph.nodes, seed)
        labeling = solve_node_sequential(semigraph, coloring_oracle, order=order)
        assert verify_solution(COLORING, semigraph, labeling).ok
        assert is_deg_plus_one_coloring(graph, COLORING.to_classic(semigraph, labeling))

    def test_works_on_general_graphs_too(self):
        graph = nx.complete_graph(6)
        semigraph = semigraph_from_graph(graph)
        labeling = solve_node_sequential(semigraph, coloring_oracle)
        assert verify_solution(COLORING, semigraph, labeling).ok

    def test_partial_solution_is_respected(self):
        # Pre-colour one node and let the sequential solver complete the rest.
        graph = nx.path_graph(5)
        semigraph = semigraph_from_graph(graph)
        partial = HalfEdgeLabeling()
        for edge in semigraph.incident_edges(2):
            partial.assign((2, edge), 3)
        labeling = solve_node_sequential(semigraph, coloring_oracle, partial=partial)
        assert labeling[(2, next(iter(semigraph.incident_edges(2))))] == 3
        assert verify_solution(COLORING, semigraph, labeling).ok

    def test_order_must_cover_all_nodes(self):
        semigraph = semigraph_from_graph(nx.path_graph(3))
        with pytest.raises(ValueError):
            solve_node_sequential(semigraph, mis_oracle, order=[0, 1])
        with pytest.raises(ValueError):
            solve_node_sequential(semigraph, mis_oracle, order=[0, 1, 1, 2])

    def test_incomplete_oracle_rejected(self):
        semigraph = semigraph_from_graph(nx.path_graph(3))
        with pytest.raises(SLocalError):
            solve_node_sequential(semigraph, lambda view: {})


class TestP2Solvers:
    """Maximal matching and edge colouring admit 1-hop edge-sequential solvers."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matching_under_adversarial_orders(self, seed):
        graph = random_tree(60, seed=6)
        semigraph = semigraph_from_graph(graph)
        order = shuffled(semigraph.edges, seed)
        labeling = solve_edge_sequential(semigraph, matching_oracle, order=order)
        assert verify_solution(MATCHING, semigraph, labeling).ok
        matching = [tuple(e) for e in MATCHING.to_classic(semigraph, labeling)]
        assert is_maximal_matching(graph, matching)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_edge_coloring_under_adversarial_orders(self, seed):
        graph = random_tree(60, seed=7)
        semigraph = semigraph_from_graph(graph)
        order = shuffled(semigraph.edges, seed)
        labeling = solve_edge_sequential(semigraph, edge_coloring_oracle, order=order)
        assert verify_solution(EDGE_COLORING, semigraph, labeling).ok
        colours = EDGE_COLORING.to_classic(semigraph, labeling)
        assert is_edge_degree_plus_one_coloring(graph, colours)

    def test_edge_coloring_on_general_graphs(self):
        graph = nx.complete_graph(5)
        semigraph = semigraph_from_graph(graph)
        labeling = solve_edge_sequential(semigraph, edge_coloring_oracle)
        assert verify_solution(EDGE_COLORING, semigraph, labeling).ok

    def test_order_must_cover_all_edges_once(self):
        semigraph = semigraph_from_graph(nx.path_graph(3))
        first, second = sorted(semigraph.edges)
        with pytest.raises(ValueError):
            solve_edge_sequential(semigraph, matching_oracle, order=[first])
        with pytest.raises(ValueError):
            solve_edge_sequential(semigraph, matching_oracle, order=[first, second, first])

    def test_membership_registry(self):
        assert membership_class(MIS) == "P1"
        assert membership_class(COLORING) == "P1"
        assert membership_class(MATCHING) == "P2"
        assert membership_class(EDGE_COLORING) == "P2"
        assert membership_class(SinklessOrientationProblem()) is None
        assert set(P1_ORACLES) == {"maximal-independent-set", "(deg+1)-coloring"}
        assert set(P2_ORACLES) == {"maximal-matching", "(edge-degree+1)-edge-coloring"}


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=100),
)
def test_property_p1_p2_oracles_valid_for_random_orders(n, tree_seed, order_seed):
    graph = random_tree(n, seed=tree_seed)
    semigraph = semigraph_from_graph(graph)
    node_order = shuffled(semigraph.nodes, order_seed)
    edge_order = shuffled(semigraph.edges, order_seed)
    mis_labeling = solve_node_sequential(semigraph, mis_oracle, order=node_order)
    assert verify_solution(MIS, semigraph, mis_labeling).ok
    matching_labeling = solve_edge_sequential(semigraph, matching_oracle, order=edge_order)
    assert verify_solution(MATCHING, semigraph, matching_labeling).ok


class TestSinklessOrientation:
    PROBLEM = SinklessOrientationProblem()

    def test_node_constraint(self):
        assert self.PROBLEM.node_config_ok((OUT, IN, IN))
        assert not self.PROBLEM.node_config_ok((IN, IN, IN))
        assert self.PROBLEM.node_config_ok((IN, IN))  # degree 2 < 3: unconstrained
        assert self.PROBLEM.node_config_ok(())
        assert not self.PROBLEM.node_config_ok(("X",))

    def test_edge_constraint(self):
        assert self.PROBLEM.edge_config_ok((IN, OUT), 2)
        assert not self.PROBLEM.edge_config_ok((OUT, OUT), 2)
        assert not self.PROBLEM.edge_config_ok((IN, IN), 2)
        assert self.PROBLEM.edge_config_ok((OUT,), 1)
        assert self.PROBLEM.edge_config_ok((), 0)

    def test_min_degree_parameter(self):
        problem = SinklessOrientationProblem(min_degree=1)
        assert not problem.node_config_ok((IN,))
        assert problem.node_config_ok((OUT,))
        with pytest.raises(ValueError):
            SinklessOrientationProblem(min_degree=0)

    def test_roundtrip_on_clique(self):
        graph = nx.complete_graph(5)
        semigraph = semigraph_from_graph(graph)
        orientation = greedy_sinkless_orientation(graph)
        assert is_sinkless_orientation(graph, orientation)
        classic = {
            tuple(sorted(edge, key=repr)): tail for edge, tail in orientation.items()
        }
        labeling = self.PROBLEM.from_classic(semigraph, classic)
        assert verify_solution(self.PROBLEM, semigraph, labeling).ok
        assert self.PROBLEM.to_classic(semigraph, labeling) == classic

    @pytest.mark.parametrize(
        "graph",
        [
            nx.cycle_graph(7),
            nx.complete_graph(6),
            balanced_regular_tree(3, 4),
            nx.grid_2d_graph(4, 5),
            nx.petersen_graph(),
        ],
        ids=["cycle", "clique", "tree", "grid", "petersen"],
    )
    def test_greedy_oracle_on_various_graphs(self, graph):
        orientation = greedy_sinkless_orientation(graph)
        assert is_sinkless_orientation(graph, orientation)

    def test_classic_verifier_rejects_sink(self):
        graph = nx.star_graph(3)
        # Every edge oriented towards the centre: the centre (degree 3) is a sink.
        orientation = {(0, leaf): leaf for leaf in (1, 2, 3)}
        assert not is_sinkless_orientation(graph, orientation)

    def test_classic_verifier_rejects_missing_edge(self):
        graph = nx.cycle_graph(4)
        orientation = {(0, 1): 0}
        assert not is_sinkless_orientation(graph, orientation)

    def test_verification_catches_sink_in_labeling(self):
        graph = nx.complete_graph(4)
        semigraph = semigraph_from_graph(graph)
        labeling = HalfEdgeLabeling()
        for edge in semigraph.edges:
            u, v = semigraph.endpoints(edge)
            # Orient every edge towards the lexicographically smaller endpoint:
            # that endpoint collects only IN labels somewhere in the graph.
            tail, head = (u, v) if repr(u) > repr(v) else (v, u)
            labeling.assign((tail, edge), OUT)
            labeling.assign((head, edge), IN)
        result = verify_solution(self.PROBLEM, semigraph, labeling)
        assert not result.ok  # node 0 has degree 3 and only incoming edges

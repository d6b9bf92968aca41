"""Tests for the maximal matching (Section 5.2) and MIS encodings."""

import networkx as nx
import pytest

from repro.problems import (
    DUMMY,
    MaximalIndependentSetProblem,
    MaximalMatchingProblem,
    verify_solution,
)
from repro.problems.classic import (
    is_independent_set,
    is_matching,
    is_maximal_independent_set,
    is_maximal_matching,
)
from repro.problems.matching import MATCHED, POINTER, UNMATCHED
from repro.problems.mis import IN_MIS, OUT, POINTER as MIS_POINTER
from repro.semigraph import HalfEdgeLabeling, restrict_to_nodes, semigraph_from_graph
from repro.semigraph.builders import edge_id_for

MATCHING = MaximalMatchingProblem()
MIS = MaximalIndependentSetProblem()


class TestMatchingConstraints:
    def test_node_with_one_matched_edge(self):
        assert MATCHING.node_config_ok((MATCHED, POINTER, UNMATCHED, DUMMY))

    def test_node_with_two_matched_edges_rejected(self):
        assert not MATCHING.node_config_ok((MATCHED, MATCHED))

    def test_unmatched_node(self):
        assert MATCHING.node_config_ok((UNMATCHED, UNMATCHED, DUMMY))

    def test_pointer_without_matched_edge_rejected(self):
        # P claims "matched elsewhere", so a node with a P must carry an M.
        assert not MATCHING.node_config_ok((POINTER, UNMATCHED))

    def test_unknown_label_rejected(self):
        assert not MATCHING.node_config_ok(("Z",))

    def test_edge_constraints(self):
        assert MATCHING.edge_config_ok((MATCHED, MATCHED), 2)
        assert MATCHING.edge_config_ok((POINTER, POINTER), 2)
        assert MATCHING.edge_config_ok((POINTER, UNMATCHED), 2)
        assert not MATCHING.edge_config_ok((UNMATCHED, UNMATCHED), 2)
        assert not MATCHING.edge_config_ok((MATCHED, POINTER), 2)
        assert MATCHING.edge_config_ok((DUMMY,), 1)
        assert not MATCHING.edge_config_ok((MATCHED,), 1)
        assert MATCHING.edge_config_ok((), 0)

    def test_edge_with_label_of_another_type_rejected(self):
        # A pair label next to a string is not allowed, and must not make
        # the check (or the verifier calling it) raise.
        assert not MATCHING.edge_config_ok((DUMMY, (1, 2)), 2)
        assert not MATCHING.edge_config_ok((7, POINTER), 2)
        assert MATCHING.edge_config_ok((UNMATCHED, POINTER), 2)


class TestMatchingConversions:
    def test_roundtrip_on_path(self):
        graph = nx.path_graph(4)
        semigraph = semigraph_from_graph(graph)
        matching = {edge_id_for(1, 2)}
        labeling = MATCHING.from_classic(semigraph, matching)
        assert verify_solution(MATCHING, semigraph, labeling).ok
        assert MATCHING.to_classic(semigraph, labeling) == matching

    def test_non_maximal_matching_fails_verification(self):
        graph = nx.path_graph(5)
        semigraph = semigraph_from_graph(graph)
        labeling = MATCHING.from_classic(semigraph, {edge_id_for(0, 1)})
        result = verify_solution(MATCHING, semigraph, labeling)
        assert not result.ok  # edge {2,3} or {3,4} has two unmatched endpoints

    def test_rank_one_edges_get_dummy(self):
        graph = nx.path_graph(3)
        semigraph = restrict_to_nodes(semigraph_from_graph(graph), {1})
        labeling = MATCHING.from_classic(semigraph, set())
        for edge in semigraph.edges_of_rank(1):
            (node,) = semigraph.endpoints(edge)
            assert labeling[(node, edge)] == DUMMY


class TestMatchingClassicVerifiers:
    def test_is_matching(self):
        graph = nx.path_graph(4)
        assert is_matching(graph, [(0, 1), (2, 3)])
        assert not is_matching(graph, [(0, 1), (1, 2)])
        assert not is_matching(graph, [(0, 2)])

    def test_is_maximal_matching(self):
        graph = nx.path_graph(5)
        assert is_maximal_matching(graph, [(1, 2), (3, 4)])
        assert not is_maximal_matching(graph, [(0, 1)])


class TestMISConstraints:
    def test_node_all_in(self):
        assert MIS.node_config_ok((IN_MIS, IN_MIS))

    def test_node_out_needs_pointer(self):
        assert MIS.node_config_ok((MIS_POINTER, OUT))
        assert not MIS.node_config_ok((OUT, OUT))

    def test_mixed_in_out_rejected(self):
        assert not MIS.node_config_ok((IN_MIS, OUT))

    def test_empty_is_valid(self):
        assert MIS.node_config_ok(())

    def test_edge_constraints(self):
        assert MIS.edge_config_ok((IN_MIS, MIS_POINTER), 2)
        assert MIS.edge_config_ok((IN_MIS, OUT), 2)
        assert MIS.edge_config_ok((OUT, OUT), 2)
        assert not MIS.edge_config_ok((IN_MIS, IN_MIS), 2)
        assert not MIS.edge_config_ok((MIS_POINTER, OUT), 2)
        assert MIS.edge_config_ok((IN_MIS,), 1)
        assert MIS.edge_config_ok((OUT,), 1)
        assert not MIS.edge_config_ok((MIS_POINTER,), 1)

    def test_edge_with_unhashable_label_rejected(self):
        # An unhashable label is not allowed, and must not make the check
        # (or the verifier calling it) raise.
        assert not MIS.edge_config_ok((["x"], IN_MIS), 2)
        semigraph = semigraph_from_graph(nx.path_graph(2))
        labeling = MIS.from_classic(semigraph, {0})
        (edge,) = semigraph.edges
        labeling = HalfEdgeLabeling({**labeling.as_mapping(), (1, edge): ["x"]})
        result = verify_solution(MIS, semigraph, labeling)
        assert not result.ok
        assert {violation.kind for violation in result.violations} == {"node", "edge"}


class TestMISConversions:
    def test_roundtrip_on_star(self):
        graph = nx.star_graph(4)
        semigraph = semigraph_from_graph(graph)
        labeling = MIS.from_classic(semigraph, {0})
        assert verify_solution(MIS, semigraph, labeling).ok
        assert MIS.to_classic(semigraph, labeling) == {0}

    def test_leaves_as_mis(self):
        graph = nx.star_graph(4)
        semigraph = semigraph_from_graph(graph)
        labeling = MIS.from_classic(semigraph, {1, 2, 3, 4})
        assert verify_solution(MIS, semigraph, labeling).ok

    def test_non_maximal_set_fails(self):
        graph = nx.path_graph(5)
        semigraph = semigraph_from_graph(graph)
        labeling = MIS.from_classic(semigraph, {0})
        assert not verify_solution(MIS, semigraph, labeling).ok

    def test_dependent_set_fails(self):
        graph = nx.path_graph(3)
        semigraph = semigraph_from_graph(graph)
        labeling = MIS.from_classic(semigraph, {0, 1})
        assert not verify_solution(MIS, semigraph, labeling).ok

    def test_isolated_node_joins_classic_mis(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        graph.add_edge(0, 1)
        graph.add_node(7)
        semigraph = semigraph_from_graph(graph)
        labeling = MIS.from_classic(semigraph, {0, 7})
        assert verify_solution(MIS, semigraph, labeling).ok
        assert 7 in MIS.to_classic(semigraph, labeling)


class TestMISClassicVerifiers:
    def test_is_independent_set(self):
        graph = nx.path_graph(4)
        assert is_independent_set(graph, {0, 2})
        assert not is_independent_set(graph, {0, 1})
        assert not is_independent_set(graph, {99})

    def test_is_maximal_independent_set(self):
        graph = nx.path_graph(4)
        assert is_maximal_independent_set(graph, {0, 2})
        assert is_maximal_independent_set(graph, {1, 3})
        assert not is_maximal_independent_set(graph, {0})

"""Tests for the node-list and edge-list variants Π* and Π× (Definitions 7, 8)."""

import networkx as nx

from repro.problems import (
    DUMMY,
    DegreePlusOneColoring,
    EdgeDegreePlusOneEdgeColoring,
    MaximalIndependentSetProblem,
    MaximalMatchingProblem,
)
from repro.problems.lists import (
    EdgeListConstraint,
    NodeListConstraint,
    build_edge_list_instance,
    build_node_list_instance,
    verify_edge_list_solution,
    verify_node_list_solution,
)
from repro.problems.matching import MATCHED, POINTER, UNMATCHED
from repro.problems.mis import IN_MIS, OUT, POINTER as MIS_POINTER
from repro.semigraph import (
    HalfEdgeLabeling,
    restrict_to_edges,
    restrict_to_nodes,
    semigraph_from_graph,
)
from repro.semigraph.builders import edge_id_for

EDGE_COLORING = EdgeDegreePlusOneEdgeColoring()
MATCHING = MaximalMatchingProblem()
MIS = MaximalIndependentSetProblem()
COLORING = DegreePlusOneColoring()


class TestConstraints:
    def test_node_list_constraint_edge_coloring(self):
        # A node that already carries the pair (2, 5) on a solved half-edge:
        # the completion may not reuse colour 5 and degree parts must respect
        # the combined count.
        constraint = NodeListConstraint(EDGE_COLORING, fixed=((2, 5),))
        assert constraint.allows(((2, 7),))
        assert not constraint.allows(((2, 5),))
        assert not constraint.allows(((3, 7),))  # only 2 pairs in total

    def test_node_list_constraint_trivial(self):
        constraint = NodeListConstraint(MATCHING)
        assert constraint.allows((MATCHED, POINTER))
        assert not constraint.allows((MATCHED, MATCHED))

    def test_edge_list_constraint_mis(self):
        # The other endpoint (outside the sub-instance) chose M.
        constraint = EdgeListConstraint(MIS, fixed=(IN_MIS,), full_rank=2)
        assert constraint.allows((MIS_POINTER,))
        assert constraint.allows((OUT,))
        assert not constraint.allows((IN_MIS,))
        # Wrong cardinality never matches the full rank.
        assert not constraint.allows((OUT, OUT))

    def test_edge_list_constraint_coloring(self):
        constraint = EdgeListConstraint(COLORING, fixed=(3,), full_rank=2)
        assert constraint.allows((1,))
        assert not constraint.allows((3,))


class TestInstanceConstruction:
    def build_tree_parts(self):
        tree = nx.path_graph(4)  # 0-1-2-3
        semigraph = semigraph_from_graph(tree)
        inner = restrict_to_nodes(semigraph, {1, 2})
        outer = restrict_to_nodes(semigraph, {0, 3})
        return semigraph, inner, outer

    def test_build_edge_list_instance_from_partial_mis(self):
        semigraph, inner, outer = self.build_tree_parts()
        # Solve the outer part first: nodes 0 and 3 join the MIS.
        partial = MIS.from_classic(outer, {0, 3})
        instance = build_edge_list_instance(MIS, semigraph, inner, partial)
        boundary = instance.list_for(edge_id_for(0, 1))
        assert boundary.fixed == (IN_MIS,)
        interior = instance.list_for(edge_id_for(1, 2))
        assert interior.fixed == ()
        # Nodes 1 and 2 must now stay out of the MIS and point at 0 resp. 3.
        labeling = HalfEdgeLabeling(
            {
                (1, edge_id_for(0, 1)): MIS_POINTER,
                (1, edge_id_for(1, 2)): OUT,
                (2, edge_id_for(1, 2)): OUT,
                (2, edge_id_for(2, 3)): MIS_POINTER,
            }
        )
        assert verify_edge_list_solution(instance, labeling).ok

    def test_edge_list_solution_rejects_joining_next_to_mis(self):
        semigraph, inner, outer = self.build_tree_parts()
        partial = MIS.from_classic(outer, {0, 3})
        instance = build_edge_list_instance(MIS, semigraph, inner, partial)
        labeling = HalfEdgeLabeling(
            {
                (1, edge_id_for(0, 1)): IN_MIS,
                (1, edge_id_for(1, 2)): IN_MIS,
                (2, edge_id_for(1, 2)): MIS_POINTER,
                (2, edge_id_for(2, 3)): OUT,
            }
        )
        result = verify_edge_list_solution(instance, labeling)
        assert not result.ok

    def test_build_node_list_instance_from_partial_edge_coloring(self):
        tree = nx.star_graph(3)  # centre 0, leaves 1..3
        semigraph = semigraph_from_graph(tree)
        first_two = restrict_to_edges(semigraph, {edge_id_for(0, 1), edge_id_for(0, 2)})
        partial = EDGE_COLORING.from_classic(
            first_two, {edge_id_for(0, 1): 1, edge_id_for(0, 2): 2}
        )
        rest = restrict_to_edges(semigraph, {edge_id_for(0, 3)})
        instance = build_node_list_instance(EDGE_COLORING, semigraph, rest, partial)
        centre_list = instance.list_for(0)
        assert len(centre_list.fixed) == 2
        leaf_list = instance.list_for(3)
        assert leaf_list.fixed == ()
        # Colour 3 with a large enough degree part completes the colouring.
        good = HalfEdgeLabeling(
            {
                (0, edge_id_for(0, 3)): (3, 3),
                (3, edge_id_for(0, 3)): (1, 3),
            }
        )
        assert verify_node_list_solution(instance, good).ok
        # Re-using colour 1 at the centre violates the centre's list.
        bad = HalfEdgeLabeling(
            {
                (0, edge_id_for(0, 3)): (3, 1),
                (3, edge_id_for(0, 3)): (1, 1),
            }
        )
        result = verify_node_list_solution(instance, bad)
        assert not result.ok
        assert any(v.kind == "node" and v.subject == 0 for v in result.violations)

    def test_incomplete_labeling_reported(self):
        semigraph, inner, outer = self.build_tree_parts()
        partial = MIS.from_classic(outer, {0, 3})
        instance = build_edge_list_instance(MIS, semigraph, inner, partial)
        result = verify_edge_list_solution(instance, HalfEdgeLabeling())
        assert not result.ok
        assert all(v.kind == "unlabeled" for v in result.violations)

    def test_list_for_defaults(self):
        semigraph = semigraph_from_graph(nx.path_graph(2))
        edge_instance = build_edge_list_instance(
            MIS, semigraph, semigraph, HalfEdgeLabeling()
        )
        assert edge_instance.list_for(edge_id_for(0, 1)).fixed == ()
        node_instance = build_node_list_instance(
            MATCHING, semigraph, semigraph, HalfEdgeLabeling()
        )
        assert node_instance.list_for(0).fixed == ()


class TestMatchingLists:
    def test_matching_node_list_blocks_second_matched_edge(self):
        constraint = NodeListConstraint(MATCHING, fixed=(MATCHED, DUMMY))
        assert constraint.allows((POINTER, UNMATCHED))
        assert not constraint.allows((MATCHED,))

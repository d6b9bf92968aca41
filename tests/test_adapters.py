"""Tests for the TrulyLocalAlgorithm adapters: they must solve Π on semi-graphs.

The transformation hands the adapters semi-graphs that contain rank-1 edges
(edges whose other endpoint lies in the other part of the decomposition),
so the adapters must produce labels that are valid for the semi-graph
encodings of Section 5 — not just for plain graphs.
"""

import networkx as nx
import pytest

from repro.baselines import (
    DegPlusOneColoringAlgorithm,
    EdgeColoringAlgorithm,
    MISAlgorithm,
    MaximalMatchingAlgorithm,
    OracleCostModel,
)
from repro.core.complexity import polylog
from repro.generators import balanced_regular_tree, random_tree
from repro.problems import verify_solution
from repro.semigraph import (
    SemiGraph,
    restrict_to_edges,
    restrict_to_nodes,
    semigraph_from_graph,
)
from repro.semigraph.builders import edge_id_for

ADAPTERS = {
    "deg+1-coloring": DegPlusOneColoringAlgorithm,
    "mis": MISAlgorithm,
    "edge-coloring": EdgeColoringAlgorithm,
    "matching": MaximalMatchingAlgorithm,
}


def semigraph_with_rank_one_edges():
    """The T_C-style semi-graph of a balanced tree restricted to its inner nodes."""
    tree = balanced_regular_tree(3, 3)
    semigraph = semigraph_from_graph(tree)
    leaves = {v for v in tree.nodes() if tree.degree(v) == 1}
    inner = set(tree.nodes()) - leaves
    return restrict_to_nodes(semigraph, inner)


def semigraph_rank_two_only():
    """A G[E2]-style semi-graph: an edge-induced sub-semi-graph of a tree."""
    tree = random_tree(60, seed=4)
    semigraph = semigraph_from_graph(tree)
    edges = sorted(semigraph.edges, key=repr)[: len(list(semigraph.edges)) // 2]
    return restrict_to_edges(semigraph, edges)


@pytest.mark.parametrize("name", sorted(ADAPTERS))
class TestAdaptersOnSemiGraphs:
    def test_full_graph(self, name):
        algorithm = ADAPTERS[name]()
        semigraph = semigraph_from_graph(random_tree(50, seed=1))
        labeling, rounds = algorithm.solve_semigraph(semigraph)
        assert verify_solution(algorithm.problem, semigraph, labeling).ok
        assert rounds >= 1

    def test_semigraph_with_rank_one_edges(self, name):
        algorithm = ADAPTERS[name]()
        semigraph = semigraph_with_rank_one_edges()
        labeling, _ = algorithm.solve_semigraph(semigraph)
        assert verify_solution(algorithm.problem, semigraph, labeling).ok

    def test_edge_induced_semigraph(self, name):
        algorithm = ADAPTERS[name]()
        semigraph = semigraph_rank_two_only()
        labeling, _ = algorithm.solve_semigraph(semigraph)
        assert verify_solution(algorithm.problem, semigraph, labeling).ok

    def test_declared_complexity_is_monotone(self, name):
        algorithm = ADAPTERS[name]()
        values = [algorithm.complexity(x) for x in (0, 1, 2, 5, 10, 100)]
        assert values[0] == 0
        assert all(later >= earlier for earlier, later in zip(values, values[1:]))


@pytest.mark.parametrize("second", [(1, 2), (2, 1)], ids=["same-order", "reversed"])
class TestParallelEdges:
    """Parallel rank-2 edges share one node of the line graph."""

    @staticmethod
    def semigraph(second):
        return SemiGraph([1, 2, 3], {"a": (1, 2), "b": second, "c": (2, 3)})

    def test_edge_colouring_names_the_parallel_edges(self, second):
        with pytest.raises(ValueError, match="'a' and 'b' are parallel"):
            EdgeColoringAlgorithm().solve_semigraph(self.semigraph(second))

    def test_matching_still_verifies(self, second):
        algorithm = MaximalMatchingAlgorithm()
        semigraph = self.semigraph(second)
        labeling, _ = algorithm.solve_semigraph(semigraph)
        assert verify_solution(algorithm.problem, semigraph, labeling).ok


class TestOracleCostModel:
    def test_charged_rounds(self):
        model = OracleCostModel("bbko22b", polylog(12))
        cheap = model.charged_rounds(2, 1000)
        expensive = model.charged_rounds(16, 1000)
        assert expensive > cheap
        assert cheap >= 1

    def test_degree_one_charges_only_log_star(self):
        from repro.core.complexity import log_star

        model = OracleCostModel("bbko22b", polylog(12))
        assert model.charged_rounds(1, 10**6) == log_star(10**6)

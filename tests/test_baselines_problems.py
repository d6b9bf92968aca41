"""Tests for the truly local baselines: edge colouring, MIS, maximal matching."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    deg_plus_one_coloring,
    edge_degree_plus_one_coloring,
    maximal_independent_set,
    maximal_matching,
)
from repro.generators import (
    balanced_regular_tree,
    caterpillar,
    random_graph_with_max_degree,
    random_tree,
)
from repro.problems.classic import (
    is_edge_degree_plus_one_coloring,
    is_maximal_independent_set,
    is_maximal_matching,
)

GRAPHS = {
    "path": nx.path_graph(40),
    "cycle": nx.cycle_graph(25),
    "star": nx.star_graph(12),
    "clique": nx.complete_graph(6),
    "balanced-tree": balanced_regular_tree(3, 4),
    "caterpillar": caterpillar(15, 2),
    "random-tree": random_tree(70, seed=2),
    "bounded-degree": random_graph_with_max_degree(60, 4, seed=9),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
class TestEdgeColoringBaseline:
    def test_valid_coloring(self, name):
        graph = GRAPHS[name]
        run = edge_degree_plus_one_coloring(graph)
        assert is_edge_degree_plus_one_coloring(graph, run.colours)

    def test_round_accounting(self, name):
        graph = GRAPHS[name]
        run = edge_degree_plus_one_coloring(graph)
        assert run.rounds == 2 * run.line_graph_rounds


@pytest.mark.parametrize("name", sorted(GRAPHS))
class TestMISBaseline:
    def test_valid_mis(self, name):
        graph = GRAPHS[name]
        run = maximal_independent_set(graph)
        assert is_maximal_independent_set(graph, run.independent_set)

    def test_round_breakdown(self, name):
        graph = GRAPHS[name]
        run = maximal_independent_set(graph)
        assert run.rounds == run.coloring_rounds + run.sweep_rounds


@pytest.mark.parametrize("name", sorted(GRAPHS))
class TestMatchingBaseline:
    def test_valid_matching(self, name):
        graph = GRAPHS[name]
        run = maximal_matching(graph)
        matching = [tuple(edge) for edge in run.matching]
        assert is_maximal_matching(graph, matching)

    def test_round_breakdown(self, name):
        graph = GRAPHS[name]
        run = maximal_matching(graph)
        assert run.rounds == run.edge_coloring_rounds + run.sweep_rounds


class TestTrulyLocalScaling:
    """The baselines' round counts depend on Δ, not on n (the defining
    property of a truly local algorithm)."""

    def test_mis_rounds_independent_of_n_on_paths(self):
        rounds = [maximal_independent_set(nx.path_graph(n)).rounds for n in (50, 400, 1500)]
        assert max(rounds) - min(rounds) <= 3

    def test_matching_rounds_independent_of_n_on_paths(self):
        rounds = [maximal_matching(nx.path_graph(n)).rounds for n in (50, 400)]
        assert max(rounds) - min(rounds) <= 6

    def test_mis_rounds_grow_with_degree(self):
        low = maximal_independent_set(random_graph_with_max_degree(80, 3, seed=1)).rounds
        high = maximal_independent_set(random_graph_with_max_degree(80, 10, seed=1)).rounds
        assert high > low

    @pytest.mark.parametrize("baseline", [
        deg_plus_one_coloring,
        edge_degree_plus_one_coloring,
        maximal_matching,
    ], ids=lambda baseline: baseline.__name__)
    def test_other_baselines_grow_with_degree(self, baseline):
        low, high = (
            baseline(random_graph_with_max_degree(300, degree, seed=13)).rounds
            for degree in (3, 12)
        )
        assert 0 < low < high

    def test_empty_graphs(self):
        assert maximal_independent_set(nx.Graph()).independent_set == set()
        assert maximal_matching(nx.Graph()).matching == set()
        assert edge_degree_plus_one_coloring(nx.Graph()).colours == {}

    def test_edgeless_graph(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(5))
        run = maximal_independent_set(graph)
        assert run.independent_set == set(range(5))
        assert maximal_matching(graph).matching == set()


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2000))
def test_property_baselines_on_random_trees(n, seed):
    tree = random_tree(n, seed=seed)
    assert is_maximal_independent_set(tree, maximal_independent_set(tree).independent_set)
    assert is_maximal_matching(tree, [tuple(e) for e in maximal_matching(tree).matching])
    assert is_edge_degree_plus_one_coloring(tree, edge_degree_plus_one_coloring(tree).colours)

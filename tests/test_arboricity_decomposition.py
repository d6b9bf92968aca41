"""Tests for the bounded-arboricity Decomposition (Algorithm 3, Lemmas 13-14)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition import arboricity_decomposition
from repro.generators import (
    balanced_regular_tree,
    forest_union,
    grid_graph,
    planar_triangulation_like,
    random_tree,
)
from repro.problems.classic import is_proper_vertex_coloring

INSTANCES = {
    # name: (graph, arboricity bound)
    "random-tree": (random_tree(200, seed=1), 1),
    "balanced-tree": (balanced_regular_tree(4, 4), 1),
    "two-forests": (forest_union(150, 2, seed=2), 2),
    "three-forests": (forest_union(120, 3, seed=3), 3),
    "grid": (grid_graph(10, 12), 2),
    "planar": (planar_triangulation_like(100, seed=4), 3),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
class TestAlgorithmThree:
    def test_all_nodes_marked(self, name):
        graph, a = INSTANCES[name]
        decomposition = arboricity_decomposition(graph, a, k=5 * a)
        marked = set().union(*decomposition.layers) if decomposition.layers else set()
        assert marked == set(graph.nodes())

    def test_lemma_13_iteration_bound(self, name):
        graph, a = INSTANCES[name]
        decomposition = arboricity_decomposition(graph, a, k=5 * a)
        assert decomposition.iterations <= decomposition.theoretical_iteration_bound

    def test_lemma_14_typical_degree_bound(self, name):
        graph, a = INSTANCES[name]
        decomposition = arboricity_decomposition(graph, a, k=5 * a)
        assert decomposition.typical_max_degree() <= decomposition.k

    def test_atypical_budget(self, name):
        graph, a = INSTANCES[name]
        decomposition = arboricity_decomposition(graph, a, k=5 * a)
        assert decomposition.max_atypical_per_lower_endpoint() <= decomposition.b

    def test_edge_partition_is_complete(self, name):
        graph, a = INSTANCES[name]
        decomposition = arboricity_decomposition(graph, a, k=5 * a)
        classified = len(decomposition.typical_edges) + len(decomposition.atypical_edges)
        assert classified == graph.number_of_edges()
        assert not (decomposition.typical_edges & decomposition.atypical_edges)

    def test_forests_are_forests_and_cover_atypical_edges(self, name):
        graph, a = INSTANCES[name]
        decomposition = arboricity_decomposition(graph, a, k=5 * a)
        covered = set()
        for forest_edges in decomposition.forests:
            if not forest_edges:
                continue
            forest = nx.Graph()
            forest.add_edges_from(forest_edges)
            assert nx.is_forest(forest)
            covered |= set(forest_edges)
        assert covered == decomposition.atypical_edges

    def test_forest_colorings_are_proper(self, name):
        graph, a = INSTANCES[name]
        decomposition = arboricity_decomposition(graph, a, k=5 * a)
        for forest_edges, colours in zip(
            decomposition.forests, decomposition.forest_colorings
        ):
            if not forest_edges:
                continue
            forest = nx.Graph()
            forest.add_edges_from(forest_edges)
            assert is_proper_vertex_coloring(forest, colours)
            assert set(colours.values()) <= {1, 2, 3}

    def test_star_collections_are_stars_and_cover_atypical_edges(self, name):
        graph, a = INSTANCES[name]
        decomposition = arboricity_decomposition(graph, a, k=5 * a)
        assert decomposition.star_components_are_stars()
        covered = set()
        for edges in decomposition.star_collections.values():
            covered |= set(edges)
        assert covered == decomposition.atypical_edges

    def test_round_accounting(self, name):
        graph, a = INSTANCES[name]
        decomposition = arboricity_decomposition(graph, a, k=5 * a)
        assert decomposition.rounds >= 2 * decomposition.iterations


class TestParameterValidation:
    def test_invalid_arboricity(self):
        with pytest.raises(ValueError):
            arboricity_decomposition(nx.path_graph(3), 0, k=5)

    def test_b_must_exceed_a(self):
        with pytest.raises(ValueError):
            arboricity_decomposition(nx.path_graph(3), 2, k=10, b=2)

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            arboricity_decomposition(nx.path_graph(3), 1, k=1)

    def test_empty_graph(self):
        decomposition = arboricity_decomposition(nx.Graph(), 1, k=5)
        assert decomposition.iterations == 0
        assert decomposition.typical_edges == set()

    def test_wrong_arboricity_bound_makes_no_progress(self):
        # A clique on 8 nodes has arboricity 4; claiming a = 1 with k = 5
        # leaves every node with degree 7 > k, so no node is ever marked.
        with pytest.raises(RuntimeError):
            arboricity_decomposition(nx.complete_graph(8), 1, k=5)

    def test_lemmas_13_and_14_hold_for_larger_k(self):
        for graph, a in INSTANCES.values():
            for k in (10 * a, 20 * a):
                decomposition = arboricity_decomposition(graph, a, k)
                assert decomposition.iterations <= decomposition.theoretical_iteration_bound
                assert decomposition.typical_max_degree() <= k
                assert decomposition.max_atypical_per_lower_endpoint() <= decomposition.b
                assert decomposition.star_components_are_stars()

    def test_atypical_budget_holds_for_every_b(self):
        graph = planar_triangulation_like(400, seed=5)
        for b in (4, 6, 9, 12):
            decomposition = arboricity_decomposition(graph, 3, 15, b=b)
            assert decomposition.max_atypical_per_lower_endpoint() <= b

    def test_larger_k_reduces_iterations(self):
        graph = planar_triangulation_like(200, seed=7)
        small = arboricity_decomposition(graph, 3, k=15)
        large = arboricity_decomposition(graph, 3, k=60)
        assert large.iterations <= small.iterations

    def test_atypical_edges_cross_layers(self):
        graph = planar_triangulation_like(150, seed=8)
        decomposition = arboricity_decomposition(graph, 3, k=15)
        for u, v in decomposition.atypical_edges:
            assert decomposition.node_iteration[u] != decomposition.node_iteration[v]


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=5, max_value=60),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=1000),
)
def test_property_arboricity_decomposition_invariants(n, a, seed):
    graph = forest_union(n, a, seed=seed)
    decomposition = arboricity_decomposition(graph, a, k=5 * a)
    assert decomposition.typical_max_degree() <= decomposition.k
    assert decomposition.max_atypical_per_lower_endpoint() <= decomposition.b
    assert decomposition.iterations <= decomposition.theoretical_iteration_bound
    assert decomposition.star_components_are_stars()
    total = len(decomposition.typical_edges) + len(decomposition.atypical_edges)
    assert total == graph.number_of_edges()

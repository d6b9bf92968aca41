"""Tests for the rake-and-compress decomposition (Algorithm 1, Lemmas 9-11)."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition import rake_and_compress
from repro.generators import (
    balanced_regular_tree,
    broom,
    caterpillar,
    path_graph,
    random_tree,
    spider,
    star_graph,
)

TREES = {
    "path": path_graph(100),
    "star": star_graph(50),
    "binary": balanced_regular_tree(3, 5),
    "five-regular": balanced_regular_tree(5, 3),
    "caterpillar": caterpillar(30, 4),
    "spider": spider(10, 8),
    "broom": broom(20, 15),
    "random-200": random_tree(200, seed=0),
    "random-500": random_tree(500, seed=1),
}


@pytest.mark.parametrize("name", sorted(TREES))
@pytest.mark.parametrize("k", [2, 3, 8])
class TestAlgorithmOne:
    def test_lemma_9_all_nodes_marked(self, name, k):
        tree = TREES[name]
        decomposition = rake_and_compress(tree, k)
        marked = decomposition.compressed_nodes | decomposition.raked_nodes
        assert marked == set(tree.nodes())
        assert decomposition.compressed_nodes.isdisjoint(decomposition.raked_nodes)

    def test_iteration_bound(self, name, k):
        tree = TREES[name]
        decomposition = rake_and_compress(tree, k)
        assert decomposition.iterations <= decomposition.theoretical_iteration_bound
        assert decomposition.rounds == 2 * decomposition.iterations

    def test_lemma_10_compress_edge_degree(self, name, k):
        tree = TREES[name]
        decomposition = rake_and_compress(tree, k)
        assert decomposition.compress_edge_max_degree() <= k
        # The compressed-node-induced subgraph is a subgraph of the Lemma 10
        # graph, so the same bound applies (this is what Theorem 12 uses).
        assert decomposition.compressed_subgraph_max_degree() <= k

    def test_lemma_11_raked_component_diameter(self, name, k):
        tree = TREES[name]
        decomposition = rake_and_compress(tree, k)
        bound = decomposition.lemma_11_diameter_bound()
        for diameter in decomposition.raked_component_diameters():
            assert diameter <= bound

    def test_order_is_total(self, name, k):
        tree = TREES[name]
        decomposition = rake_and_compress(tree, k)
        keys = [decomposition.order_key(v) for v in tree.nodes()]
        assert len(set(keys)) == len(keys)


class TestAlgorithmOneEdgeCases:
    def test_singleton_tree(self):
        tree = nx.Graph()
        tree.add_node(0)
        decomposition = rake_and_compress(tree, 2)
        assert decomposition.raked_nodes | decomposition.compressed_nodes == {0}

    def test_two_node_tree(self):
        decomposition = rake_and_compress(nx.path_graph(2), 2)
        assert decomposition.iterations == 1

    def test_empty_graph(self):
        decomposition = rake_and_compress(nx.Graph(), 2)
        assert decomposition.iterations == 0

    def test_forest_input_allowed(self):
        forest = nx.Graph()
        forest.add_edges_from([(0, 1), (2, 3), (3, 4)])
        forest.add_node(10)
        decomposition = rake_and_compress(forest, 2)
        assert decomposition.compressed_nodes | decomposition.raked_nodes == set(
            forest.nodes()
        )

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            rake_and_compress(nx.cycle_graph(5), 2)
        # m < n, but the triangle is still a cycle.
        padded = nx.cycle_graph(3)
        padded.add_nodes_from([3, 4, 5])
        with pytest.raises(ValueError, match="contains a cycle"):
            rake_and_compress(padded, 2)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            rake_and_compress(nx.path_graph(3), 1)

    def test_path_compresses_in_one_iteration(self):
        decomposition = rake_and_compress(nx.path_graph(64), 2)
        assert decomposition.iterations == 1
        # On a path every node has degree at most 2 = k, so the very first
        # compress step marks all of them (the compress step runs before rake).
        assert decomposition.compressed_nodes == set(range(64))
        assert decomposition.raked_nodes == set()

    def test_star_center_survives_first_iteration(self):
        decomposition = rake_and_compress(nx.star_graph(40), 3)
        assert decomposition.iterations == 2
        # Leaves are raked in the first iteration (their neighbour has a high
        # degree, so they cannot be compressed); the centre becomes isolated
        # and is compressed in the second iteration.
        assert decomposition.raked_nodes == set(range(1, 41))
        assert decomposition.compressed_nodes == {0}

    def test_higher_lower_relation(self):
        decomposition = rake_and_compress(random_tree(60, seed=5), 3)
        nodes = list(decomposition.tree.nodes())
        u, v = nodes[0], nodes[1]
        assert decomposition.is_higher(u, v) != decomposition.is_higher(v, u)
        assert decomposition.lower_endpoint(u, v) in (u, v)


class TestLayerStructure:
    def test_layers_partition_nodes(self):
        tree = random_tree(150, seed=9)
        decomposition = rake_and_compress(tree, 3)
        counted = sum(len(layer.nodes) for layer in decomposition.layers)
        assert counted == tree.number_of_nodes()

    def test_compress_layer_lower_than_same_iteration_rake_layer(self):
        tree = caterpillar(10, 2)
        decomposition = rake_and_compress(tree, 2)
        by_iteration = {}
        for layer in decomposition.layers:
            by_iteration.setdefault(layer.iteration, {})[layer.kind] = layer
        for kinds in by_iteration.values():
            if "compress" in kinds and "rake" in kinds:
                assert kinds["compress"].order_index < kinds["rake"].order_index

    def test_number_of_layers_scales_with_log_k_n(self):
        tree = balanced_regular_tree(3, 8)
        small_k = rake_and_compress(tree, 2)
        large_k = rake_and_compress(tree, 16)
        assert large_k.iterations <= small_k.iterations


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=80),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=2, max_value=10),
)
def test_property_rake_compress_invariants(n, seed, k):
    tree = random_tree(n, seed=seed)
    decomposition = rake_and_compress(tree, k)
    assert decomposition.compressed_nodes | decomposition.raked_nodes == set(tree.nodes())
    assert decomposition.compress_edge_max_degree() <= k
    bound = decomposition.lemma_11_diameter_bound()
    assert all(d <= bound for d in decomposition.raked_component_diameters())
    assert decomposition.iterations <= decomposition.theoretical_iteration_bound

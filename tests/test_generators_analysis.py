"""Tests for the instance generators and the analysis helpers."""

import math

import networkx as nx
import pytest

from repro.analysis import MeasurementTable, fit_power_of_log
from repro.generators import (
    balanced_regular_tree,
    binary_tree,
    broom,
    caterpillar,
    forest_union,
    grid_graph,
    path_graph,
    planar_triangulation_like,
    random_graph_with_max_degree,
    random_tree,
    spider,
    star_graph,
)


class TestTreeGenerators:
    def test_path_and_star(self):
        assert nx.is_tree(path_graph(10))
        assert path_graph(10).number_of_nodes() == 10
        assert nx.is_tree(star_graph(10))
        assert star_graph(10).degree(0) == 9

    def test_binary_tree(self):
        tree = binary_tree(15)
        assert nx.is_tree(tree)
        assert max(d for _, d in tree.degree()) == 3

    def test_balanced_regular_tree_structure(self):
        tree = balanced_regular_tree(4, 3)
        assert nx.is_tree(tree)
        leaves = [v for v in tree.nodes() if tree.degree(v) == 1]
        internal = [v for v in tree.nodes() if tree.degree(v) > 1]
        assert all(tree.degree(v) == 4 for v in internal)
        distances = nx.single_source_shortest_path_length(tree, 0)
        assert {distances[leaf] for leaf in leaves} == {3}

    def test_balanced_regular_tree_rejects_degree_one(self):
        with pytest.raises(ValueError):
            balanced_regular_tree(1, 3)

    def test_caterpillar_and_spider_and_broom(self):
        assert nx.is_tree(caterpillar(10, 3))
        assert caterpillar(10, 3).number_of_nodes() == 10 + 30
        assert nx.is_tree(spider(5, 4))
        assert spider(5, 4).degree(0) == 5
        assert nx.is_tree(broom(10, 7))

    def test_random_tree_is_tree_and_seeded(self):
        first = random_tree(50, seed=3)
        second = random_tree(50, seed=3)
        different = random_tree(50, seed=4)
        assert nx.is_tree(first)
        assert set(first.edges()) == set(second.edges())
        assert set(first.edges()) != set(different.edges())

    def test_random_tree_tiny_sizes(self):
        assert random_tree(0).number_of_nodes() == 0
        assert random_tree(1).number_of_nodes() == 1
        assert random_tree(2).number_of_edges() == 1


class TestBoundedArboricityGenerators:
    def test_forest_union_edge_budget(self):
        for a in (1, 2, 4):
            graph = forest_union(80, a, seed=1)
            assert graph.number_of_nodes() == 80
            assert graph.number_of_edges() <= a * 79

    def test_grid_is_planar_sized(self):
        graph = grid_graph(6, 7)
        assert graph.number_of_nodes() == 42
        assert graph.number_of_edges() == 6 * 6 + 7 * 5

    def test_planar_triangulation_like_edge_count(self):
        graph = planar_triangulation_like(50, seed=2)
        assert graph.number_of_nodes() == 50
        assert graph.number_of_edges() == 3 * 50 - 6  # maximal planar edge count
        assert nx.check_planarity(graph)[0]

    def test_random_graph_with_max_degree(self):
        graph = random_graph_with_max_degree(100, 5, seed=3)
        assert max(d for _, d in graph.degree()) <= 5


class TestAnalysis:
    def test_measurement_table_rendering(self):
        table = MeasurementTable("Demo", ["n", "rounds"])
        table.add_row(100, 12)
        table.add_row(1000, 15.5)
        text = table.render()
        assert "Demo" in text and "rounds" in text and "15.50" in text

    def test_measurement_table_row_width_checked(self):
        table = MeasurementTable("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_fit_power_of_log_recovers_exponent(self):
        ns = [2**e for e in range(4, 40, 4)]
        beta_true, c_true = 0.75, 3.0
        values = [c_true * math.log2(n) ** beta_true for n in ns]
        beta, c = fit_power_of_log(ns, values)
        assert beta == pytest.approx(beta_true, abs=1e-6)
        assert c == pytest.approx(c_true, rel=1e-6)

    def test_fit_distinguishes_log_from_sublog(self):
        ns = [2**e for e in range(6, 60, 6)]
        logarithmic = [math.log2(n) for n in ns]
        sublogarithmic = [math.log2(n) ** 0.6 for n in ns]
        assert fit_power_of_log(ns, logarithmic)[0] == pytest.approx(1.0, abs=0.01)
        assert fit_power_of_log(ns, sublogarithmic)[0] == pytest.approx(0.6, abs=0.01)

    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_power_of_log([2], [1.0])

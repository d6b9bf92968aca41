"""Unit tests for the semi-graph object model (Section 2 of the paper)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semigraph import (
    HalfEdge,
    HalfEdgeLabeling,
    SemiGraph,
    restrict_to_edges,
    restrict_to_nodes,
    semigraph_from_graph,
)
from repro.semigraph.builders import edge_id_for
from repro.semigraph.labeling import canonical_multiset


def small_tree() -> nx.Graph:
    graph = nx.Graph()
    graph.add_edges_from([(0, 1), (1, 2), (1, 3), (3, 4)])
    return graph


class TestSemiGraphConstruction:
    def test_empty(self):
        semigraph = SemiGraph()
        assert semigraph.num_nodes() == 0
        assert semigraph.num_edges() == 0
        assert semigraph.max_degree() == 0
        assert semigraph.underlying_degree() == 0

    def test_add_nodes_and_edges(self):
        semigraph = SemiGraph(["a", "b", "c"])
        semigraph.add_edge("e1", ("a", "b"))
        semigraph.add_edge("e2", ("c",))
        semigraph.add_edge("e3", ())
        assert semigraph.rank("e1") == 2
        assert semigraph.rank("e2") == 1
        assert semigraph.rank("e3") == 0
        assert semigraph.degree("a") == 1
        assert semigraph.degree("c") == 1
        assert semigraph.edges_of_rank(1) == ["e2"]

    def test_rejects_self_loop(self):
        semigraph = SemiGraph(["a"])
        with pytest.raises(ValueError):
            semigraph.add_edge("loop", ("a", "a"))

    def test_rejects_unknown_endpoint(self):
        semigraph = SemiGraph(["a"])
        with pytest.raises(ValueError):
            semigraph.add_edge("e", ("a", "zzz"))

    def test_rejects_duplicate_edge_id(self):
        semigraph = SemiGraph(["a", "b"])
        semigraph.add_edge("e", ("a", "b"))
        with pytest.raises(ValueError):
            semigraph.add_edge("e", ("a",))

    def test_rejects_three_endpoints(self):
        semigraph = SemiGraph(["a", "b", "c"])
        with pytest.raises(ValueError):
            semigraph.add_edge("e", ("a", "b", "c"))

    def test_add_node_idempotent(self):
        semigraph = SemiGraph(["a"])
        semigraph.add_node("a")
        semigraph.add_node("b")
        assert semigraph.num_nodes() == 2

    def test_contains_and_len(self):
        semigraph = SemiGraph(["a", "b"])
        assert "a" in semigraph
        assert "z" not in semigraph
        assert len(semigraph) == 2

    def test_copy_is_independent(self):
        semigraph = SemiGraph(["a", "b"], {"e": ("a", "b")})
        clone = semigraph.copy()
        clone.add_node("c")
        assert "c" not in semigraph


class TestSemiGraphQueries:
    def test_half_edges(self):
        semigraph = SemiGraph(["a", "b", "c"], {"e1": ("a", "b"), "e2": ("c",)})
        half_edges = set(semigraph.half_edges())
        assert half_edges == {
            HalfEdge("a", "e1"),
            HalfEdge("b", "e1"),
            HalfEdge("c", "e2"),
        }
        assert semigraph.half_edges_of_edge("e2") == [HalfEdge("c", "e2")]
        assert semigraph.half_edges_of_node("a") == [HalfEdge("a", "e1")]

    def test_other_endpoint(self):
        semigraph = SemiGraph(["a", "b", "c"], {"e1": ("a", "b"), "e2": ("c",)})
        assert semigraph.other_endpoint("e1", "a") == "b"
        assert semigraph.other_endpoint("e1", "b") == "a"
        assert semigraph.other_endpoint("e2", "c") is None
        with pytest.raises(ValueError):
            semigraph.other_endpoint("e1", "c")

    def test_neighbors_ignore_low_rank_edges(self):
        semigraph = SemiGraph(["a", "b", "c"], {"e1": ("a", "b"), "e2": ("a",)})
        assert semigraph.neighbors("a") == {"b"}

    def test_underlying_graph_and_degree(self):
        semigraph = SemiGraph(["a", "b", "c"], {"e1": ("a", "b"), "e2": ("a",)})
        underlying = semigraph.underlying_graph()
        assert set(underlying.nodes()) == {"a", "b", "c"}
        assert underlying.number_of_edges() == 1
        assert semigraph.underlying_degree() == 1
        assert semigraph.max_degree() == 2  # "a" has two half-edges

    def test_connected_components_and_diameter(self):
        semigraph = semigraph_from_graph(small_tree())
        components = semigraph.connected_components()
        assert len(components) == 1
        assert semigraph.component_diameters() == [3]
        assert semigraph.is_connected()

    def test_isolated_nodes_are_components(self):
        semigraph = SemiGraph(["a", "b"], {})
        assert len(semigraph.connected_components()) == 2
        assert not semigraph.is_connected()


class TestBuilders:
    def test_from_graph_roundtrip(self):
        tree = small_tree()
        semigraph = semigraph_from_graph(tree)
        assert semigraph.num_nodes() == tree.number_of_nodes()
        assert semigraph.num_edges() == tree.number_of_edges()
        assert all(semigraph.rank(e) == 2 for e in semigraph.edges)
        underlying = semigraph.underlying_graph()
        assert nx.is_isomorphic(underlying, tree)
        assert semigraph.underlying_degree() == 3

    def test_restrict_to_nodes_keep_boundary(self):
        tree = small_tree()
        semigraph = semigraph_from_graph(tree)
        sub = restrict_to_nodes(semigraph, {1, 3})
        # Edges {0,1}, {1,2} and {3,4} become rank-1; {1,3} stays rank-2.
        assert sorted(sub.rank(e) for e in sub.edges) == [1, 1, 1, 2]
        assert sub.degree(1) == 3
        assert sub.underlying_degree() == 1

    def test_restrict_to_nodes_drop_boundary(self):
        tree = small_tree()
        semigraph = semigraph_from_graph(tree)
        sub = restrict_to_nodes(semigraph, {1, 3}, keep_boundary_edges=False)
        assert set(sub.edges) == {edge_id_for(1, 3)}
        assert sub.rank(edge_id_for(1, 3)) == 2

    def test_restrict_to_nodes_unknown_node(self):
        semigraph = semigraph_from_graph(small_tree())
        with pytest.raises(ValueError):
            restrict_to_nodes(semigraph, {999})

    def test_restrict_to_edges(self):
        semigraph = semigraph_from_graph(small_tree())
        chosen = {edge_id_for(0, 1), edge_id_for(1, 2)}
        sub = restrict_to_edges(semigraph, chosen)
        assert set(sub.edges) == chosen
        assert set(sub.nodes) == {0, 1, 2}
        assert all(sub.rank(e) == 2 for e in sub.edges)

    def test_restrict_to_edges_unknown_edge(self):
        semigraph = semigraph_from_graph(small_tree())
        with pytest.raises(ValueError):
            restrict_to_edges(semigraph, {("x", "y")})

    def test_edge_id_for_is_symmetric(self):
        assert edge_id_for(3, 1) == edge_id_for(1, 3)


class TestHalfEdgeLabeling:
    def test_assign_and_query(self):
        labeling = HalfEdgeLabeling()
        h = HalfEdge("a", "e")
        labeling.assign(h, "X")
        assert labeling[h] == "X"
        assert labeling.is_labeled(h)
        assert labeling.get(HalfEdge("b", "e"), "default") == "default"
        assert len(labeling) == 1

    def test_conflicting_assignment_raises(self):
        labeling = HalfEdgeLabeling()
        h = HalfEdge("a", "e")
        labeling.assign(h, "X")
        labeling.assign(h, "X")  # idempotent re-assignment is fine
        with pytest.raises(ValueError):
            labeling.assign(h, "Y")

    def test_merge(self):
        first = HalfEdgeLabeling({HalfEdge("a", "e"): 1})
        second = HalfEdgeLabeling({HalfEdge("b", "e"): 2})
        merged = first.merge(second)
        assert len(merged) == 2
        conflicting = HalfEdgeLabeling({HalfEdge("a", "e"): 7})
        with pytest.raises(ValueError):
            first.merge(conflicting)

    def test_is_complete(self):
        semigraph = SemiGraph(["a", "b"], {"e": ("a", "b"), "f": ("a",)})
        labeling = HalfEdgeLabeling(
            {HalfEdge("a", "e"): "X", HalfEdge("b", "e"): "Y", HalfEdge("a", "f"): "Z"}
        )
        assert labeling.is_complete(semigraph)
        partial = HalfEdgeLabeling({HalfEdge("a", "e"): "X"})
        assert not partial.is_complete(semigraph)

    def test_restricted_to(self):
        semigraph = SemiGraph(["a", "b"], {"e": ("a", "b")})
        labeling = HalfEdgeLabeling(
            {HalfEdge("a", "e"): 1, HalfEdge("zzz", "qqq"): 2}
        )
        restricted = labeling.restricted_to(semigraph)
        assert len(restricted) == 1

    def test_canonical_multiset_mixed_types(self):
        assert canonical_multiset(["D", (1, 2)]) == canonical_multiset([(1, 2), "D"])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
def test_property_semigraph_from_random_tree(n, seed):
    """Converting a tree preserves node count, edge count and degrees."""
    from repro.generators import random_tree

    tree = random_tree(n, seed=seed)
    semigraph = semigraph_from_graph(tree)
    assert semigraph.num_nodes() == n
    assert semigraph.num_edges() == n - 1
    for node in tree.nodes():
        assert semigraph.degree(node) == tree.degree(node)
    # Restricting to the full node set is the identity on ranks.
    full = restrict_to_nodes(semigraph, tree.nodes())
    assert all(full.rank(e) == 2 for e in full.edges)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=30), st.integers(min_value=0, max_value=10_000))
def test_property_restriction_degree_split(n, seed):
    """Half-edge degrees in T_C plus degrees in T_R equal the tree degrees."""
    from repro.generators import random_tree

    tree = random_tree(n, seed=seed)
    semigraph = semigraph_from_graph(tree)
    nodes = sorted(tree.nodes())
    part = set(nodes[: n // 2])
    rest = set(nodes) - part
    sub_part = restrict_to_nodes(semigraph, part)
    sub_rest = restrict_to_nodes(semigraph, rest)
    for node in part:
        assert sub_part.degree(node) == tree.degree(node)
    for node in rest:
        assert sub_rest.degree(node) == tree.degree(node)
    # Every half-edge of the tree is covered by exactly one of the two parts.
    total = len(list(sub_part.half_edges())) + len(list(sub_rest.half_edges()))
    assert total == 2 * tree.number_of_edges()


# ----------------------------------------------------------------------
# HalfEdge as a tuple, and restrictions built from the parent's index
# ----------------------------------------------------------------------
def _add_edge_restrict_to_nodes(semigraph, nodes, keep_boundary_edges):
    """``restrict_to_nodes`` built edge by edge through ``add_edge``."""
    node_set = set(nodes)
    result = SemiGraph(node_set)
    for edge in semigraph.edges:
        endpoints = semigraph.endpoints(edge)
        inside = tuple(v for v in endpoints if v in node_set)
        if keep_boundary_edges:
            if inside:
                result.add_edge(edge, inside)
        elif len(inside) == len(endpoints) and endpoints:
            result.add_edge(edge, endpoints)
    return result


def _add_edge_restrict_to_edges(semigraph, edges):
    """``restrict_to_edges`` built edge by edge through ``add_edge``."""
    result = SemiGraph(v for edge in edges for v in semigraph.endpoints(edge))
    for edge in edges:
        result.add_edge(edge, semigraph.endpoints(edge))
    return result


def _structure(semigraph):
    """Nodes, endpoints per edge and incidence sets of a semi-graph."""
    return (
        semigraph.nodes,
        {edge: semigraph.endpoints(edge) for edge in semigraph.edges},
        {node: semigraph.incident_edges(node) for node in semigraph.nodes},
    )


def _generated_graphs():
    from repro.generators import forest_union, random_tree

    for seed in range(12):
        yield random_tree(2 + 7 * seed, seed=seed)
        yield forest_union(3 + 6 * seed, arboricity=2, seed=seed)


class TestHalfEdgeTupleAndCheckedRestrictions:
    def test_half_edge_repr_and_hash_are_the_tuple_ones(self):
        assert repr(HalfEdge(1, (1, 2))) == "HalfEdge(node=1, edge=(1, 2))"
        for node, edge in ((1, (1, 2)), ("a", "e"), ((0, 1), ((0, 1), (0, 2)))):
            assert hash(HalfEdge(node, edge)) == hash((node, edge))
            assert HalfEdge(node, edge) == (node, edge)

    def test_semigraph_from_graph_matches_add_edge(self):
        for graph in _generated_graphs():
            reference = SemiGraph(graph.nodes())
            for u, v in graph.edges():
                reference.add_edge(edge_id_for(u, v), (u, v))
            assert _structure(semigraph_from_graph(graph)) == _structure(reference)

    def test_restrictions_match_add_edge(self):
        import random

        rng = random.Random(7)
        for graph in _generated_graphs():
            semigraph = semigraph_from_graph(graph)
            nodes = [v for v in sorted(graph.nodes()) if rng.random() < 0.5]
            edges = [e for e in sorted(semigraph.edges) if rng.random() < 0.5]
            for keep in (True, False):
                assert _structure(restrict_to_nodes(semigraph, nodes, keep)) == (
                    _structure(_add_edge_restrict_to_nodes(semigraph, nodes, keep))
                )
            assert _structure(restrict_to_edges(semigraph, edges)) == (
                _structure(_add_edge_restrict_to_edges(semigraph, edges))
            )
            # A restriction of a restriction keeps rank-1 edges as they are.
            boundary = restrict_to_nodes(semigraph, nodes)
            inner = [v for v in nodes if rng.random() < 0.5]
            assert _structure(restrict_to_nodes(boundary, inner)) == (
                _structure(_add_edge_restrict_to_nodes(boundary, inner, True))
            )
            assert _structure(semigraph.copy()) == _structure(semigraph)

    def test_semigraph_from_graph_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            semigraph_from_graph(nx.Graph([(0, 0), (0, 1)]))

    def test_edge_id_for_orders_by_repr(self):
        pairs = [(1, 2), (2, 1), (10, 9), ("b", "a"), ((0, 1), (0, 0)), (3, "3"),
                 ("3", 3), (1.5, 1), ((2, 10), (2, 9))]
        for u, v in pairs:
            assert edge_id_for(u, v) == tuple(sorted((u, v), key=repr))

        class Anonymous:
            def __repr__(self):
                return "anonymous"

        first, second = Anonymous(), Anonymous()
        # On a repr tie the pair keeps its order, as a stable sort does.
        assert edge_id_for(first, second) == (first, second)
        assert edge_id_for(second, first) == (second, first)

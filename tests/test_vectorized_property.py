"""Property-style equivalence of the vectorized backend across instance
families.

Seeded random trees and bounded-degree graphs, swept over sizes and
seeds, are run three ways — vectorized array kernels, the interpreted
active-set engine and the preserved seed engine — and every observable
must agree exactly: per-node labelings, round counts and message counts,
both in the :class:`RunResult` and through the :class:`CellContext`
account.  This is the bit-identical contract that lets ``auto`` mode
pick the backend per algorithm without changing any stored result.
"""

import pytest

from repro.baselines.coloring import deg_plus_one_coloring
from repro.baselines.color_reduction import ColorClassReduction
from repro.baselines.forest_coloring import ForestThreeColoring
from repro.baselines.linial import LinialColoring
from repro.baselines.mis import ColorClassMIS
from repro.decomposition import arboricity_decomposition, rake_and_compress
from repro.generators import (
    bfs_forest_parents,
    forest_union,
    random_graph_with_max_degree,
    random_tree,
)
from repro.local import (
    CellContext,
    Network,
    numpy_available,
    run_synchronous,
    run_synchronous_reference,
    run_vectorized,
)

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy is required for the vectorized backend"
)

#: (n, seed) sweep of the property tests.  n=2500 is large enough that
#: the Linial schedule has real reduction rounds (not just the trivial
#: identifier round), so both code paths of the kernel are exercised.
TREE_CASES = [(50, 1), (50, 2), (200, 3), (200, 4), (800, 5), (2500, 6)]
GRAPH_CASES = [(60, 5, 1), (200, 6, 2), (700, 4, 3)]


def _three_way(network, algorithm_factory, max_rounds=None):
    """Run all three engines; return their (result, messages) pairs."""
    outcomes = []
    for runner in (run_vectorized, run_synchronous, run_synchronous_reference):
        with CellContext() as context:
            result = runner(network, algorithm_factory(), max_rounds=max_rounds)
        outcomes.append((result, context.messages))
    return outcomes


def _colour_class_network(graph):
    """Network with a (deg+1)-colouring as node inputs, for the sweeps."""
    coloring = deg_plus_one_coloring(graph)
    num_classes = max(coloring.colours.values(), default=1)
    network = Network(
        graph,
        node_inputs=dict(coloring.colours),
        shared={"num_classes": num_classes},
    )
    return network, num_classes


def _assert_identical(outcomes):
    (vec, vec_msgs), (fast, fast_msgs), (ref, ref_msgs) = outcomes
    assert vec.rounds == fast.rounds == ref.rounds
    assert vec.messages_sent == fast.messages_sent == ref.messages_sent
    assert vec.outputs == fast.outputs == ref.outputs
    assert vec_msgs == fast_msgs == ref_msgs


@pytest.mark.parametrize("n, seed", TREE_CASES)
def test_linial_three_way_on_random_trees(n, seed):
    network = Network(random_tree(n, seed=seed))
    _assert_identical(_three_way(network, LinialColoring))


@pytest.mark.parametrize("n, max_degree, seed", GRAPH_CASES)
def test_linial_three_way_on_bounded_degree_graphs(n, max_degree, seed):
    network = Network(random_graph_with_max_degree(n, max_degree, seed=seed))
    _assert_identical(_three_way(network, LinialColoring))


@pytest.mark.parametrize("n, seed", TREE_CASES)
def test_forest_three_coloring_three_way_on_random_trees(n, seed):
    tree = random_tree(n, seed=seed)
    network = Network(tree, node_inputs=bfs_forest_parents(tree))
    outcomes = _three_way(network, ForestThreeColoring)
    _assert_identical(outcomes)
    assert len(set(outcomes[0][0].outputs.values())) <= 3


@pytest.mark.parametrize("n, seed", TREE_CASES)
def test_mis_three_way_on_random_trees(n, seed):
    graph = random_tree(n, seed=seed)
    network, num_classes = _colour_class_network(graph)
    outcomes = _three_way(network, ColorClassMIS, max_rounds=num_classes + 2)
    _assert_identical(outcomes)
    chosen = {node for node, joined in outcomes[0][0].outputs.items() if joined}
    assert all(not (u in chosen and v in chosen) for u, v in graph.edges)
    assert all(
        node in chosen or any(nb in chosen for nb in graph.adj[node])
        for node in graph.nodes
    )


@pytest.mark.parametrize("n, max_degree, seed", GRAPH_CASES)
def test_mis_three_way_on_bounded_degree_graphs(n, max_degree, seed):
    graph = random_graph_with_max_degree(n, max_degree, seed=seed)
    network, num_classes = _colour_class_network(graph)
    outcomes = _three_way(network, ColorClassMIS, max_rounds=num_classes + 2)
    _assert_identical(outcomes)


@pytest.mark.parametrize("n, seed", TREE_CASES)
def test_colour_reduction_three_way_on_random_trees(n, seed):
    graph = random_tree(n, seed=seed)
    network, num_classes = _colour_class_network(graph)
    outcomes = _three_way(
        network, ColorClassReduction, max_rounds=num_classes + 1
    )
    _assert_identical(outcomes)
    colours = outcomes[0][0].outputs
    assert all(colours[u] != colours[v] for u, v in graph.edges)
    assert all(
        colours[node] <= graph.degree(node) + 1 for node in graph.nodes
    )


@pytest.mark.parametrize("n, max_degree, seed", GRAPH_CASES)
def test_colour_reduction_three_way_on_bounded_degree_graphs(n, max_degree, seed):
    graph = random_graph_with_max_degree(n, max_degree, seed=seed)
    network, num_classes = _colour_class_network(graph)
    outcomes = _three_way(
        network, ColorClassReduction, max_rounds=num_classes + 1
    )
    _assert_identical(outcomes)


# ----------------------------------------------------------------------
# decomposition peels: one CSR loop, whatever the engine mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, k, seed", [(100, 3, 1), (400, 6, 2), (1500, 8, 3)])
def test_rake_compress_peel_property(n, k, seed):
    tree = random_tree(n, seed=seed)
    with CellContext("vectorized") as vectorized_context:
        vectorized = rake_and_compress(tree, k=k)
    with CellContext("interpreted") as interpreted_context:
        interpreted = rake_and_compress(tree, k=k)
    assert vectorized.layers == interpreted.layers
    assert vectorized.node_layer == interpreted.node_layer
    assert vectorized.rounds == interpreted.rounds
    # The peel is not a simulator run, so it reports nothing.
    assert vectorized_context.engine_rounds == {}
    assert interpreted_context.engine_rounds == {}
    assert vectorized_context.runs == interpreted_context.runs == 0


@pytest.mark.parametrize("n, a, seed", [(150, 2, 1), (400, 3, 2), (900, 4, 3)])
def test_arboricity_peel_property(n, a, seed):
    graph = forest_union(n, arboricity=a, seed=seed)
    with CellContext("vectorized") as vectorized_context:
        vectorized = arboricity_decomposition(graph, arboricity=a, k=5 * a)
    with CellContext("interpreted") as interpreted_context:
        interpreted = arboricity_decomposition(graph, arboricity=a, k=5 * a)
    assert vectorized.layers == interpreted.layers
    assert vectorized.typical_edges == interpreted.typical_edges
    assert vectorized.atypical_edges == interpreted.atypical_edges
    assert vectorized.forests == interpreted.forests
    assert vectorized.forest_colorings == interpreted.forest_colorings
    assert vectorized.rounds == interpreted.rounds
    # Only the forest colourings report, one run each on the engine the
    # mode picks; the peel itself reports nothing.
    coloured = sum(1 for colouring in vectorized.forest_colorings if colouring)
    assert vectorized_context.runs == interpreted_context.runs == coloured
    assert all(
        key.startswith("vectorized/") for key in vectorized_context.engine_rounds
    )
    assert all(
        key.startswith("interpreted/") for key in interpreted_context.engine_rounds
    )
    for context in (vectorized_context, interpreted_context):
        assert not any("-peel/" in key for key in context.engine_rounds)

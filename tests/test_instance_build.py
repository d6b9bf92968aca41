"""Each instance is built once: Prüfer trees, forest parents, the CSR index
and one ``Network`` per graph shared by every pipeline stage.

The tree generator and the CSR build are pinned against the algorithms
they replace (networkx's Prüfer decoder, the two-pass forest rooting and
the view-based CSR loop, kept here as oracles), so every fingerprint's
instance and every engine input stays the same.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.baselines import (
    deg_plus_one_coloring,
    linial_coloring,
    maximal_independent_set,
)
from repro.baselines.color_reduction import (
    ColorClassReduction,
    reduce_to_deg_plus_one,
)
from repro.baselines.linial import LinialColoring
from repro.baselines.mis import ColorClassMIS
from repro.experiments import run_cell
from repro.experiments.spec import ANALYTIC_GENERATOR, GENERATORS, Cell
from repro.generators import bfs_forest_parents, random_tree
from repro.local import (
    CellContext,
    CSRAdjacency,
    Network,
    numpy_available,
    run_synchronous,
    run_vectorized,
)
from repro.local.network import default_identifiers

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
ENGINES = [run_synchronous, pytest.param(run_vectorized, marks=needs_numpy)]


def _same_graph(graph: nx.Graph, expected: nx.Graph) -> None:
    assert list(graph.nodes()) == list(expected.nodes())
    assert [(v, list(row)) for v, row in graph.adjacency()] == [
        (v, list(row)) for v, row in expected.adjacency()
    ]
    assert list(graph.edges()) == list(expected.edges())
    assert graph.graph == expected.graph


def _networkx_random_tree(n: int, seed: int) -> nx.Graph:
    """The tree ``random_tree`` drew before: networkx decodes the same code."""
    if n < 2:
        return nx.empty_graph(max(n, 0))
    rng = random.Random(seed)
    return nx.from_prufer_sequence([rng.randrange(n) for _ in range(n - 2)])


class TestRandomTree:
    def test_equals_networkx_decoding_on_every_small_n(self):
        for n in range(0, 301):
            for seed in range(5):
                _same_graph(random_tree(n, seed=seed), _networkx_random_tree(n, seed))

    def test_equals_networkx_decoding_at_scale(self):
        _same_graph(random_tree(10**5, seed=3), _networkx_random_tree(10**5, 3))


def _two_pass_parents(forest: nx.Graph) -> dict:
    """The former definition: label components, then BFS from each minimum."""
    parents: dict = {}
    for component in nx.connected_components(forest):
        root = min(component)
        parents[root] = None
        frontier = [root]
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in forest.adj[node]:
                    if neighbor not in parents:
                        parents[neighbor] = node
                        next_frontier.append(neighbor)
            frontier = next_frontier
    return parents


def _random_forest(n: int, seed: int) -> nx.Graph:
    """A forest on shuffled labels: a random tree with a fifth of its edges
    cut, plus isolated nodes, inserted in random order."""
    rng = random.Random(seed)
    tree = random_tree(n, seed=seed)
    edges = [edge for edge in tree.edges() if rng.random() >= 0.2]
    labels = list(range(n + n // 4))
    rng.shuffle(labels)
    forest = nx.Graph()
    forest.add_nodes_from(labels)
    forest.add_edges_from((labels[u], labels[v]) for u, v in edges)
    return forest


class TestBfsForestParents:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_two_pass_definition(self, seed):
        forest = _random_forest(1 + 7 * seed, seed)
        assert bfs_forest_parents(forest) == _two_pass_parents(forest)

    def test_isolated_nodes_are_roots(self):
        forest = nx.Graph()
        forest.add_nodes_from([5, 3, 9])
        forest.add_edge(9, 4)
        assert bfs_forest_parents(forest) == {3: None, 4: None, 5: None, 9: 4}

    def test_empty_forest(self):
        assert bfs_forest_parents(nx.Graph()) == {}


def _view_based_csr(graph: nx.Graph, order_key=None):
    """The former ``CSRAdjacency.from_graph``: rows through ``graph.adj``."""
    nodes = tuple(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    if order_key is None:
        order = range(n)
    else:
        order = sorted(range(n), key=lambda i: order_key(nodes[i]))
    for i in order:
        for neighbor in graph.adj[nodes[i]]:
            adjacency[index[neighbor]].append(i)
    offsets = [0]
    for row in adjacency:
        offsets.append(offsets[-1] + len(row))
    return nodes, index, offsets, [j for row in adjacency for j in row]


def _csr_graphs():
    for name, family in sorted(GENERATORS.items()):
        if name == ANALYTIC_GENERATOR:
            continue
        for seed in (1, 2):
            yield name, family.build(46, seed)
    yield "tuple-grid", nx.grid_2d_graph(5, 7)
    yield "line-graph", nx.line_graph(random_tree(40, seed=4))
    yield "line-graph-planar", nx.line_graph(
        GENERATORS["planar-triangulation"].build(30, 1)
    )
    yield "empty", nx.Graph()


CSR_GRAPHS = list(_csr_graphs())


class TestCSRBuild:
    @pytest.mark.parametrize("graph", [graph for _, graph in CSR_GRAPHS],
                             ids=[name for name, _ in CSR_GRAPHS])
    def test_equals_the_view_based_build(self, graph):
        identifiers = default_identifiers(graph.nodes())
        for order_key in (None, identifiers.__getitem__):
            csr = CSRAdjacency.from_graph(graph, order_key=order_key)
            assert (csr.nodes, csr.index, csr.offsets, csr.targets) == (
                _view_based_csr(graph, order_key)
            )


def _baseline_cell(algorithm: str) -> Cell:
    return Cell("instance-build", "random-tree", algorithm, 80, 3)


class TestOneTopologyPerInstance:
    @pytest.mark.parametrize("algorithm", [
        "baseline-linial",
        "baseline-forest-3coloring",
        "baseline-mis",
        "baseline-deg+1-coloring",
        "baseline-edge-coloring",
        "baseline-matching",
    ])
    def test_each_baseline_cell_indexes_its_graph_once(self, monkeypatch, algorithm):
        builds = []
        build = CSRAdjacency.from_graph

        def counting(graph, order_key=None):
            builds.append(graph.number_of_nodes())
            return build(graph, order_key=order_key)

        monkeypatch.setattr(CSRAdjacency, "from_graph", counting)
        result = run_cell("scaling", _baseline_cell(algorithm))
        assert result.verified
        assert len(builds) == 1

    def test_with_inputs_shares_the_topology(self):
        network = Network(random_tree(50, seed=2), shared={"k": 1})
        inputs = {node: node % 3 for node in network.nodes()}
        derived = network.with_inputs(node_inputs=inputs, shared={"num_classes": 3})
        assert derived.csr is network.csr
        assert derived.graph is network.graph
        assert derived.nodes() is network.nodes()
        assert derived.identifiers is network.identifiers
        assert derived._neighbor_cache is network._neighbor_cache
        assert (derived.max_degree, derived.max_identifier) == (
            network.max_degree, network.max_identifier,
        )
        assert (derived.node_inputs, derived.shared) == (inputs, {"num_classes": 3})
        assert (network.node_inputs, network.shared) == ({}, {"k": 1})
        inputs[0] = 99
        assert derived.node_inputs[0] == 0
        bare = network.with_inputs()
        assert (bare.node_inputs, bare.shared) == ({}, {})

    @needs_numpy
    def test_with_inputs_shares_the_array_caches(self):
        network = Network(random_tree(50, seed=2))
        linial = run_vectorized(network, LinialColoring())
        derived = network.with_inputs(node_inputs=linial.outputs)
        assert derived.csr.array_layout() is network.csr.array_layout()
        assert derived._identifier_array is network._identifier_array is not None

    def test_derivations_record_no_network_time(self):
        network = Network(random_tree(30, seed=1))
        with CellContext() as context:
            network.with_inputs(shared={"num_classes": 2})
        assert "network" not in context.timings
        with CellContext() as context:
            Network(random_tree(30, seed=1))
        assert context.timings["network"] > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_derivation_runs_like_a_fresh_network(self, engine):
        graph = random_tree(120, seed=6)
        colours, palette, _ = linial_coloring(graph)
        shared = {"num_classes": palette}
        derived = Network(graph).with_inputs(node_inputs=colours, shared=shared)
        fresh = Network(graph, node_inputs=colours, shared=shared)
        runs = [
            engine(network, ColorClassReduction(), max_rounds=palette + 1)
            for network in (derived, fresh)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_pipelines_keep_their_results(self, seed):
        """The shared-network pipelines equal the stage-by-stage public
        entry points, each of which builds its own network."""
        graph = GENERATORS["planar-triangulation"].build(90, seed)
        initial, palette, linial_rounds = linial_coloring(graph)
        colours, sweep_rounds = reduce_to_deg_plus_one(graph, initial, palette)
        coloring = deg_plus_one_coloring(graph)
        assert (coloring.colours, coloring.linial_rounds, coloring.sweep_rounds) == (
            colours, linial_rounds, sweep_rounds,
        )
        num_classes = max(colours.values())
        sweep = run_synchronous(
            Network(graph, node_inputs=colours, shared={"num_classes": num_classes}),
            ColorClassMIS(),
            max_rounds=num_classes + 2,
        )
        mis = maximal_independent_set(graph)
        assert mis.independent_set == {
            node for node, joined in sweep.outputs.items() if joined
        }
        assert (mis.coloring_rounds, mis.sweep_rounds) == (
            coloring.rounds, sweep.rounds,
        )

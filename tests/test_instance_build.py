"""Each instance is built once: Prüfer trees, forest parents, the CSR index
and one ``Network`` per graph shared by every pipeline stage.

The tree generator and the CSR build are pinned against the algorithms
they replace (networkx's Prüfer decoder, the two-pass forest rooting and
the view-based CSR loop, kept here as oracles), so every fingerprint's
instance and every engine input stays the same.

The A-phase indexes the semi-graph's own adjacency: the line-graph
builder is pinned against :func:`networkx.line_graph` (names, orientation
and neighbours), a ``Network`` on ``SemiGraph.adjacency()`` against one on
``underlying_graph()``, and every cell family is counted at the one CSR
fill with the networkx detours patched to raise.
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
from repro.baselines.adapters import (
    DegPlusOneColoringAlgorithm,
    EdgeColoringAlgorithm,
    MaximalMatchingAlgorithm,
    MISAlgorithm,
)
from repro.baselines.color_reduction import (
    ColorClassReduction,
    reduce_to_deg_plus_one,
)
from repro.baselines.edge_coloring import edge_degree_plus_one_coloring, line_graph
from repro.baselines.forest_coloring import ForestThreeColoring
from repro.baselines.linial import LinialColoring
from repro.baselines.mis import ColorClassMIS
from repro.core import transform
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
from repro.semigraph import (
    SemiGraph,
    restrict_to_edges,
    restrict_to_nodes,
    semigraph_from_graph,
)
from repro.semigraph.builders import edge_id_for

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


def _restrictions():
    """Generated semi-graphs of the kinds an A-phase runs on: whole graphs,
    ``T_C``-style and induced node restrictions, and ``G[E_2]``-style edge
    restrictions of random trees, forest unions and planar graphs."""
    rng = random.Random(11)
    for name in ("random-tree", "forest-union-2", "planar-triangulation"):
        for seed in (1, 2, 3):
            semigraph = semigraph_from_graph(GENERATORS[name].build(60, seed))
            nodes = [v for v in sorted(semigraph.nodes, key=repr) if rng.random() < 0.5]
            edges = [e for e in sorted(semigraph.edges, key=repr) if rng.random() < 0.5]
            yield f"{name}-{seed}", semigraph
            yield f"{name}-{seed}-nodes", restrict_to_nodes(semigraph, nodes)
            yield f"{name}-{seed}-induced", restrict_to_nodes(
                semigraph, nodes, keep_boundary_edges=False
            )
            yield f"{name}-{seed}-edges", restrict_to_edges(semigraph, edges)


RESTRICTIONS = list(_restrictions())


def _same_line_graph(line: dict, graph: nx.Graph) -> None:
    """``line`` has ``nx.line_graph(graph)``'s node tuples, orientation
    included, and its neighbour sets."""
    expected = nx.line_graph(graph)
    assert set(line) == set(expected.nodes())
    assert {node: set(row) for node, row in line.items()} == {
        node: set(row) for node, row in expected.adjacency()
    }


class TestLineGraph:
    @pytest.mark.parametrize("graph", [graph for _, graph in CSR_GRAPHS],
                             ids=[name for name, _ in CSR_GRAPHS])
    def test_equals_networkx_on_graphs(self, graph):
        _same_line_graph(line_graph(dict(graph.adjacency())), graph)

    @pytest.mark.parametrize("semigraph", [s for _, s in RESTRICTIONS],
                             ids=[name for name, _ in RESTRICTIONS])
    def test_equals_networkx_on_restrictions(self, semigraph):
        _same_line_graph(line_graph(semigraph.adjacency()), semigraph.underlying_graph())

    @pytest.mark.parametrize("graph", [graph for _, graph in CSR_GRAPHS],
                             ids=[name for name, _ in CSR_GRAPHS])
    def test_edge_colouring_keeps_the_networkx_colours(self, graph):
        """The colours and rounds of the colouring run on ``nx.line_graph``."""
        run = edge_degree_plus_one_coloring(graph)
        if graph.number_of_edges() == 0:
            assert (run.colours, run.rounds) == ({}, 0)
            return
        reference = deg_plus_one_coloring(nx.line_graph(graph))
        assert run.colours == {
            edge_id_for(u, v): colour for (u, v), colour in reference.colours.items()
        }
        assert (run.rounds, run.line_graph_rounds) == (
            2 * reference.rounds, reference.rounds,
        )


def _kernel_runs(network: Network, forest: bool, engine) -> list:
    """The four array kernels' runs on ``network``, with inputs derived from
    the underlying topology alone."""
    coloring = deg_plus_one_coloring(network.adjacency)
    num_classes = max(coloring.colours.values(), default=1)
    classes = network.with_inputs(
        node_inputs=coloring.colours, shared={"num_classes": num_classes}
    )
    runs = [
        engine(network, LinialColoring()),
        engine(classes, ColorClassMIS(), max_rounds=num_classes + 2),
        engine(classes, ColorClassReduction(), max_rounds=num_classes + 1),
    ]
    if forest:
        parents = bfs_forest_parents(nx.from_dict_of_lists(network.adjacency))
        runs.append(engine(network.with_inputs(node_inputs=parents), ForestThreeColoring()))
    return runs


class TestNetworkFromAdjacency:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("semigraph", [s for _, s in RESTRICTIONS],
                             ids=[name for name, _ in RESTRICTIONS])
    def test_equals_the_network_on_the_underlying_graph(self, semigraph, engine):
        underlying = semigraph.underlying_graph()
        if underlying.number_of_nodes() == 0:
            return
        network = Network(semigraph.adjacency())
        expected = Network(underlying)
        assert network.nodes() == expected.nodes()
        assert network.identifiers == expected.identifiers
        assert [network.neighbors(v) for v in network.nodes()] == [
            expected.neighbors(v) for v in expected.nodes()
        ]
        assert network.max_degree == expected.max_degree
        forest = nx.is_forest(underlying)
        assert _kernel_runs(network, forest, engine) == _kernel_runs(
            expected, forest, engine
        )

    @pytest.mark.parametrize("adjacency", [
        {1: {1, 2}, 2: {1}},
        {1: {2}, 2: set()},
        {1: {2}, 2: {3}, 3: {1}},
        {1: {2}},
        {1: [2, 3], 2: [1], 3: []},
    ], ids=["self-loop", "asymmetric-pair", "asymmetric-cycle", "unknown-neighbour",
            "asymmetric-lists"])
    def test_rejects_a_mapping_that_is_not_a_simple_graph(self, adjacency):
        with pytest.raises(ValueError):
            Network(adjacency)

    def test_keeps_the_mapping_it_is_given(self):
        adjacency = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        network = Network(adjacency)
        assert network.adjacency is adjacency
        assert network.neighbors("b") == ("a", "c")
        assert (network.num_nodes, network.max_degree) == (3, 2)


def _baseline_cell(algorithm: str) -> Cell:
    return Cell("instance-build", "random-tree", algorithm, 80, 3)


@pytest.fixture
def fills(monkeypatch):
    """The size of every CSR fill, with the networkx detours of the
    A-phase (``underlying_graph`` and ``nx.line_graph``) patched to raise."""
    sizes = []
    fill = CSRAdjacency.from_adjacency

    def counting(adjacency, order_key=None):
        sizes.append(len(adjacency))
        return fill(adjacency, order_key=order_key)

    def detour(*args, **kwargs):
        raise AssertionError("the A-phase took the networkx detour")

    monkeypatch.setattr(CSRAdjacency, "from_adjacency", counting)
    monkeypatch.setattr(nx, "line_graph", detour)
    monkeypatch.setattr(SemiGraph, "underlying_graph", detour)
    return sizes


ADAPTERS = (
    DegPlusOneColoringAlgorithm, MISAlgorithm, EdgeColoringAlgorithm,
    MaximalMatchingAlgorithm,
)
LINE_GRAPH_ADAPTERS = (EdgeColoringAlgorithm, MaximalMatchingAlgorithm)


def _record_phases(monkeypatch, fills) -> list:
    """Wrap the decompositions and every adapter's ``solve_semigraph`` so
    each call records ``(phase, its fill sizes, argument, result)``."""
    phases = []

    def wrap(owner, name, phase):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            start = len(fills)
            result = original(*args, **kwargs)
            phases.append((phase, fills[start:], args[-1], result))
            return result

        monkeypatch.setattr(owner, name, wrapper)

    wrap(transform, "rake_and_compress", "decomposition")
    wrap(transform, "arboricity_decomposition", "decomposition")
    for adapter in ADAPTERS:
        wrap(adapter, "solve_semigraph", adapter)
    return phases


class TestOneTopologyPerInstance:
    @pytest.mark.parametrize("algorithm", [
        "baseline-linial",
        "baseline-forest-3coloring",
        "baseline-mis",
        "baseline-deg+1-coloring",
        "baseline-edge-coloring",
        "baseline-matching",
    ])
    def test_each_baseline_cell_indexes_its_graph_once(self, fills, algorithm):
        result = run_cell("scaling", _baseline_cell(algorithm))
        assert result.verified
        assert len(fills) == 1

    @pytest.mark.parametrize("algorithm", [
        "tree-mis",
        "tree-deg+1-coloring",
        "arb-edge-coloring",
        "arb-matching",
        "node-list-edge-coloring",
        "node-list-matching",
        "edge-list-mis",
        "edge-list-coloring",
    ])
    def test_each_stage_of_a_paper_cell_indexes_once(
        self, monkeypatch, fills, algorithm
    ):
        """One fill per A-phase, on the semi-graph itself (its line graph
        for the edge problems), and the decomposition's own: one for the
        peel, plus, in Theorem 15's, one per non-empty forest ``F_i`` for
        its Cole–Vishkin colouring.  Nothing else indexes a graph."""
        phases = _record_phases(monkeypatch, fills)
        result = run_cell("scaling", _baseline_cell(algorithm))
        assert result.verified
        a_phases = [entry for entry in phases if entry[0] != "decomposition"]
        assert len(a_phases) == 1
        for adapter, sizes, semigraph, _ in a_phases:
            if adapter in LINE_GRAPH_ADAPTERS:
                assert sizes == [len(semigraph.edges_of_rank(2))]
            else:
                assert sizes == [semigraph.num_nodes()]
        decompositions = [entry for entry in phases if entry[0] == "decomposition"]
        assert len(decompositions) == (0 if "list" in algorithm else 1)
        for _, sizes, _, decomposition in decompositions:
            forests = getattr(decomposition, "forests", [])
            assert sizes == [80] + [
                len({v for edge in forest for v in edge}) for forest in forests if forest
            ]
        assert len(fills) == sum(len(sizes) for _, sizes, _, _ in phases)

    def test_with_inputs_shares_the_topology(self):
        network = Network(random_tree(50, seed=2), shared={"k": 1})
        inputs = {node: node % 3 for node in network.nodes()}
        derived = network.with_inputs(node_inputs=inputs, shared={"num_classes": 3})
        assert derived.csr is network.csr
        assert derived.adjacency is network.adjacency
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

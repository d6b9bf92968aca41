"""Equivalence of the fast engine against the seed reference engine.

Every registered synchronous baseline algorithm is run twice on each
seeded instance — once through the active-set / CSR engine
(:func:`run_synchronous`) and once through the preserved seed engine
(:func:`run_synchronous_reference`) — and the ``RunResult`` fields
``rounds``, ``messages_sent`` and ``outputs`` must be identical.

The CSR rewrites of the decomposition processes are cross-checked the
same way, against naive dict-of-set reimplementations of the seed
peeling loops kept inside this module.

The vectorized array engine (:func:`run_vectorized`) is pinned
three-ways on every kernel-capable scenario — vectorized vs. fast vs.
seed engine, including the :class:`CellContext` message account.

The vectorized sections skip (not fail) without numpy: the no-numpy CI
step runs this module to pin that the interpreted engine and the
degrade-to-interpreted paths stay green on a numpy-free interpreter.
"""

import networkx as nx
import pytest

from repro.baselines.color_reduction import ColorClassReduction
from repro.baselines.coloring import deg_plus_one_coloring
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
    EngineUnavailable,
    Network,
    NodeContext,
    SynchronousAlgorithm,
    numpy_available,
    run_synchronous,
    run_synchronous_reference,
    run_vectorized,
    select_engine,
    supports_vectorized,
)
from repro.local import vectorized as vectorized_engine

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="requires the numpy array backend"
)




def _tree_instances():
    yield "random-tree-40", random_tree(40, seed=3)
    yield "random-tree-90", random_tree(90, seed=17)
    yield "path-25", nx.path_graph(25)
    yield "star-30", nx.star_graph(29)


def _graph_instances():
    yield from _tree_instances()
    yield "forest-union-50", forest_union(50, arboricity=2, seed=5)
    yield "bounded-degree-60", random_graph_with_max_degree(60, 5, seed=9)


def _networks():
    """(label, Network, algorithm, max_rounds) for every registered baseline."""
    scenarios = []
    for name, graph in _graph_instances():
        scenarios.append((f"linial/{name}", Network(graph), LinialColoring(), None))

        coloring = deg_plus_one_coloring(graph)
        num_classes = max(coloring.colours.values(), default=1)
        scenarios.append(
            (
                f"color-class-mis/{name}",
                Network(
                    graph,
                    node_inputs=dict(coloring.colours),
                    shared={"num_classes": num_classes},
                ),
                ColorClassMIS(),
                num_classes + 2,
            )
        )
        scenarios.append(
            (
                f"color-class-reduction/{name}",
                Network(
                    graph,
                    node_inputs=dict(coloring.colours),
                    shared={"num_classes": num_classes},
                ),
                ColorClassReduction(),
                num_classes + 1,
            )
        )
    for name, tree in _tree_instances():
        parents = bfs_forest_parents(tree)
        scenarios.append(
            (
                f"forest-3-coloring/{name}",
                Network(tree, node_inputs=parents),
                ForestThreeColoring(),
                None,
            )
        )
    return scenarios


@pytest.mark.parametrize(
    "label, network, algorithm, max_rounds",
    _networks(),
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_fast_engine_matches_reference(label, network, algorithm, max_rounds):
    fast = run_synchronous(network, algorithm, max_rounds=max_rounds)
    reference = run_synchronous_reference(network, algorithm, max_rounds=max_rounds)
    assert fast.rounds == reference.rounds
    assert fast.messages_sent == reference.messages_sent
    assert fast.outputs == reference.outputs


# ----------------------------------------------------------------------
# vectorized backend: three-way equivalence on kernel-capable scenarios
# ----------------------------------------------------------------------
def _vectorized_networks():
    """The kernel-capable subset of :func:`_networks`."""
    return [
        scenario for scenario in _networks() if supports_vectorized(scenario[2])
    ]


@requires_numpy
@pytest.mark.parametrize(
    "label, network, algorithm, max_rounds",
    _vectorized_networks(),
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_vectorized_engine_matches_both(label, network, algorithm, max_rounds):
    with CellContext() as vectorized_context:
        vectorized = run_vectorized(network, algorithm, max_rounds=max_rounds)
    with CellContext() as fast_context:
        fast = run_synchronous(network, algorithm, max_rounds=max_rounds)
    with CellContext() as reference_context:
        reference = run_synchronous_reference(network, algorithm, max_rounds=max_rounds)
    assert vectorized.rounds == fast.rounds == reference.rounds
    assert vectorized.messages_sent == fast.messages_sent == reference.messages_sent
    assert vectorized.outputs == fast.outputs == reference.outputs
    assert (
        vectorized_context.messages == fast_context.messages
        == reference_context.messages == fast.messages_sent
    )
    assert vectorized_context.runs == fast_context.runs == reference_context.runs == 1


class _KernelLess(SynchronousAlgorithm):
    """A baseline no kernel is registered for (capability tests)."""

    name = "kernel-less"

    def initial_state(self, ctx: NodeContext) -> int:
        return 0

    def messages(self, state: int, ctx: NodeContext) -> dict:
        return {}

    def transition(self, state: int, inbox: dict, ctx: NodeContext) -> int:
        return state + 1

    def has_terminated(self, state: int, ctx: NodeContext) -> bool:
        return state >= 1

    def output(self, state: int, ctx: NodeContext) -> int:
        return state


def test_every_kernel_capable_baseline_is_covered():
    """The registry claims Linial, forest 3-colouring, MIS and Δ+1 reduction."""
    assert supports_vectorized(LinialColoring())
    assert supports_vectorized(ForestThreeColoring())
    assert supports_vectorized(ColorClassMIS())
    assert supports_vectorized(ColorClassReduction())
    assert not supports_vectorized(_KernelLess())


def test_supports_vectorized_resolves_subclasses_via_mro():
    """A subclass of a kernel-capable algorithm inherits its kernel.

    Regression: the registry used to look up ``type(algorithm)``
    exactly, silently dropping subclasses to the interpreted engine.
    """

    class TunedLinial(LinialColoring):
        pass

    algorithm = TunedLinial()
    assert supports_vectorized(algorithm)
    name, _ = vectorized_engine._kernel_for(algorithm)
    assert name == "linial"
    if numpy_available():
        tree = random_tree(30, seed=2)
        vectorized = run_vectorized(Network(tree), algorithm)
        fast = run_synchronous(Network(tree), algorithm)
        assert vectorized.outputs == fast.outputs
        assert vectorized.rounds == fast.rounds


@requires_numpy
def test_select_engine_routes_by_mode_and_capability():
    capable, incapable = LinialColoring(), _KernelLess()
    assert select_engine(capable, "auto") is run_vectorized
    assert select_engine(capable, "vectorized") is run_vectorized
    assert select_engine(capable, "interpreted") is run_synchronous
    assert select_engine(incapable, "auto") is run_synchronous
    with pytest.raises(EngineUnavailable):
        select_engine(incapable, "vectorized")


@requires_numpy
def test_engine_policy_records_backend_provenance():
    tree = random_tree(30, seed=1)
    with CellContext("auto") as context:
        run_vectorized(Network(tree), LinialColoring())
    assert context.engine == "vectorized[numpy]"
    with CellContext("interpreted") as context:
        run_synchronous(Network(tree), LinialColoring())
    assert context.engine == "interpreted"
    with CellContext("auto") as context:
        run_vectorized(Network(tree), LinialColoring())
        run_synchronous(Network(tree), LinialColoring())
    assert context.engine == "mixed"
    with CellContext("auto") as context:
        run_synchronous_reference(Network(tree), LinialColoring())
    assert context.runs == 1
    assert context.engine is None


@requires_numpy
def test_engine_policy_accounts_dispatch_rounds():
    tree = random_tree(30, seed=1)
    with CellContext("auto") as context:
        vectorized = run_vectorized(Network(tree), LinialColoring())
        interpreted = run_synchronous(Network(tree), LinialColoring())
    assert context.engine_rounds == {
        "vectorized/linial/numpy": vectorized.rounds,
        "interpreted/linial-coloring/-": interpreted.rounds,
    }


@requires_numpy
def test_baseline_entry_points_respect_ambient_policy():
    from repro.baselines.forest_coloring import color_forest_three
    from repro.baselines.linial import linial_coloring

    tree = random_tree(40, seed=7)
    parents = bfs_forest_parents(tree)
    with CellContext("interpreted"):
        expected_colours = linial_coloring(tree)
        expected_forest = color_forest_three(tree, parents)
    for mode in ("auto", "interpreted", "vectorized"):
        with CellContext(mode):
            assert linial_coloring(tree) == expected_colours
            assert color_forest_three(tree, parents) == expected_forest
    # No context at all behaves like "auto".
    assert linial_coloring(tree) == expected_colours
    assert color_forest_three(tree, parents) == expected_forest


# ----------------------------------------------------------------------
# degenerate inputs on which the engines could diverge
# ----------------------------------------------------------------------
def test_self_loops_are_rejected_at_network_construction():
    """A self-loop counts once in the CSR degree but twice in the reference
    engine's ``graph.degree``, so the engines would disagree on Δ.  The
    Network constructor rejects such graphs, like directed/multigraphs."""
    graph = nx.path_graph(6)
    graph.add_edge(3, 3)
    with pytest.raises(ValueError, match="self-loop"):
        Network(graph)


def test_loop_free_graph_still_constructs():
    network = Network(nx.path_graph(6))
    assert network.max_degree == 2


# ----------------------------------------------------------------------
# decomposition peeling loops vs. naive seed reimplementations
# ----------------------------------------------------------------------
def _naive_rake_compress_layers(tree, k):
    """The seed peeling loop of rake_and_compress (dict-of-set version)."""
    remaining = dict(tree.degree())
    alive = set(tree.nodes())
    adjacency = {node: set(tree.neighbors(node)) for node in tree.nodes()}

    def remove(nodes):
        for node in nodes:
            alive.discard(node)
        for node in nodes:
            for neighbor in adjacency[node]:
                if neighbor in alive:
                    remaining[neighbor] -= 1
            remaining[node] = 0

    layers = []
    while alive:
        compressed = {
            node
            for node in alive
            if remaining[node] <= k
            and all(remaining[nbr] <= k for nbr in adjacency[node] if nbr in alive)
        }
        remove(compressed)
        if compressed:
            layers.append(("compress", frozenset(compressed)))
        raked = {node for node in alive if remaining[node] <= 1}
        remove(raked)
        if raked:
            layers.append(("rake", frozenset(raked)))
        assert compressed or raked
    return layers


def _naive_arboricity_layers(graph, k, b):
    """The seed peeling loop of Algorithm 3 (dict-of-set version)."""
    remaining = dict(graph.degree())
    alive = set(graph.nodes())
    adjacency = {node: set(graph.neighbors(node)) for node in graph.nodes()}
    layers = []
    while alive:
        marked = {
            node
            for node in alive
            if remaining[node] <= k
            and sum(1 for nbr in adjacency[node] if nbr in alive and remaining[nbr] > k)
            <= b
        }
        assert marked
        layers.append(frozenset(marked))
        for node in marked:
            alive.discard(node)
        for node in marked:
            for neighbor in adjacency[node]:
                if neighbor in alive:
                    remaining[neighbor] -= 1
            remaining[node] = 0
    return layers


@pytest.mark.parametrize(
    "n, k, seed",
    [(60, 3, 1), (150, 5, 2), (300, 8, 3), (100, 3, 1), (400, 6, 2), (1500, 8, 3)],
)
def test_rake_compress_layers_match_naive(n, k, seed):
    tree = random_tree(n, seed=seed)
    decomposition = rake_and_compress(tree, k=k)
    fast_layers = [(layer.kind, layer.nodes) for layer in decomposition.layers]
    assert fast_layers == _naive_rake_compress_layers(tree, k)


@pytest.mark.parametrize(
    "n, a, seed", [(80, 2, 4), (200, 3, 5), (150, 2, 1), (400, 3, 2), (900, 4, 3)]
)
def test_arboricity_layers_match_naive(n, a, seed):
    graph = forest_union(n, arboricity=a, seed=seed)
    k, b = 5 * a, 2 * a
    decomposition = arboricity_decomposition(graph, arboricity=a, k=k)
    assert decomposition.layers == _naive_arboricity_layers(graph, k, b)

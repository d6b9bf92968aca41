"""Differential tests of ``SemiGraph.component_diameters`` and the queries
answered from the same adjacency.

Every case is checked against networkx on ``underlying_graph()``: the
diameter of each component (``nx.diameter``, all-pairs BFS), the
components in order, the maximum degree and connectivity.  Generated
cases are drawn by hypothesis when it is installed and by a seeded
``random.Random`` over the same case space otherwise.
"""

import random

import networkx as nx
import pytest

from repro.experiments.spec import GENERATORS
from repro.semigraph import (
    SemiGraph,
    restrict_to_edges,
    restrict_to_nodes,
    semigraph_from_graph,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the seeded fallback in ``generated`` draws the cases
    given = None

#: Experiment generator families: random trees give forest parts, the
#: other four mostly cyclic components, as the gather account meets them
#: in the transform, sinkless-orientation and list-variant cells.
FAMILIES = (
    "random-tree", "grid", "bounded-degree-8", "forest-union-2",
    "planar-triangulation",
)
#: Cases per family: 5 × 100 = 500 instances, each checked whole and
#: through a random node restriction and a random edge restriction.
CASES_PER_FAMILY = 100
SIZES = (1, 40)
SEEDS = 10_000


def generated(check):
    """Run ``check(family, n, seed)`` on CASES_PER_FAMILY cases per family."""
    if given is not None:
        return settings(max_examples=CASES_PER_FAMILY, deadline=None)(
            given(n=st.integers(*SIZES), seed=st.integers(0, SEEDS - 1))(check)
        )

    def seeded(family):
        rng = random.Random(family)
        for _ in range(CASES_PER_FAMILY):
            check(family, rng.randint(*SIZES), rng.randrange(SEEDS))

    return seeded


def assert_matches_networkx(semigraph: SemiGraph) -> None:
    graph = semigraph.underlying_graph()
    components = list(nx.connected_components(graph))
    assert semigraph.component_diameters() == [
        nx.diameter(graph.subgraph(c)) or 0 for c in components
    ]
    assert semigraph.connected_components() == components
    assert semigraph.underlying_degree() == max((d for _, d in graph.degree()), default=0)
    assert semigraph.is_connected() == (not graph or nx.is_connected(graph))


def parts(family: str, n: int, seed: int) -> list[SemiGraph]:
    """A generated instance, a node restriction and an edge restriction of it."""
    semigraph = semigraph_from_graph(GENERATORS[family].build(n, seed))
    rng = random.Random(seed)
    keep = rng.choice((0.3, 0.6, 0.9))
    nodes = [v for v in sorted(semigraph.nodes) if rng.random() < keep]
    edges = [e for e in sorted(semigraph.edges) if rng.random() < keep]
    return [
        semigraph,
        restrict_to_nodes(semigraph, nodes),
        restrict_to_edges(semigraph, edges),
    ]


@pytest.mark.parametrize("family", FAMILIES)
@generated
def test_component_diameters_match_networkx(family, n, seed):
    for part in parts(family, n, seed):
        assert_matches_networkx(part)


@pytest.mark.parametrize("semigraph, diameters", [
    pytest.param(SemiGraph(), [], id="empty"),
    pytest.param(SemiGraph([0, 1, 2]), [0, 0, 0], id="isolated-nodes"),
    pytest.param(
        SemiGraph([0, 1, 2], {"e0": (), "e1": (0,), "e2": (1,), "e3": (1, 2)}),
        [0, 1],
        id="rank-0-and-rank-1-edges",
    ),
    pytest.param(
        SemiGraph([0, 1, 2], {"e1": (0, 1), "e2": (1, 0), "e3": (1, 2)}),
        [2],
        id="two-edge-ids-on-one-pair",
    ),
    pytest.param(
        SemiGraph([0, 1, 2, 3], {"a": (0, 1), "b": (1, 2), "c": (2, 0), "d": (2, 3)}),
        [2],
        id="triangle-with-pendant",
    ),
])
def test_component_diameters_hand_cases(semigraph, diameters):
    assert semigraph.component_diameters() == diameters
    assert_matches_networkx(semigraph)

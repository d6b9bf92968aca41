"""The one-pass ``from_classic`` lifts against the per-node loops they replaced.

MIS, (deg+1)-colouring, edge colouring and matching build their labeling
in one pass over ``SemiGraph.edge_endpoints()``.  The oracles below are the
earlier implementations: a walk over the nodes (or edges) through the
``nodes`` / ``incident_edges`` frozensets with one ``assign`` per
half-edge.  Both must give the same labeling on generated semi-graphs
with rank-0, rank-1 and rank-2 edges, parallel edges and isolated nodes,
lifting arbitrary classic inputs (not only valid solutions).
"""

import random
from collections import Counter

import pytest

from repro.problems import (
    DUMMY,
    DegreePlusOneColoring,
    EdgeDegreePlusOneEdgeColoring,
    MaximalIndependentSetProblem,
    MaximalMatchingProblem,
)
from repro.problems.matching import MATCHED, POINTER as MATCHING_POINTER, UNMATCHED
from repro.problems.mis import IN_MIS, OUT, POINTER
from repro.semigraph import HalfEdge, HalfEdgeLabeling, SemiGraph

CASES = 200


# ----------------------------------------------------------------------
# The oracles: the per-half-edge loops
# ----------------------------------------------------------------------
def oracle_mis(semigraph, classic):
    labeling = HalfEdgeLabeling()
    for node in semigraph.nodes:
        in_mis = node in classic
        for edge in semigraph.incident_edges(node):
            other = semigraph.other_endpoint(edge, node)
            if in_mis:
                label = IN_MIS
            elif other is not None and other in classic:
                label = POINTER
            else:
                label = OUT
            labeling.assign(HalfEdge(node, edge), label)
    return labeling


def oracle_coloring(semigraph, classic):
    labeling = HalfEdgeLabeling()
    for node in semigraph.nodes:
        for edge in semigraph.incident_edges(node):
            labeling.assign(HalfEdge(node, edge), classic[node])
    return labeling


def oracle_edge_coloring(semigraph, classic):
    labeling = HalfEdgeLabeling()
    rank2_degree = {
        node: sum(1 for e in semigraph.incident_edges(node) if semigraph.rank(e) == 2)
        for node in semigraph.nodes
    }
    for edge in semigraph.edges:
        rank = semigraph.rank(edge)
        if rank == 1:
            (node,) = semigraph.endpoints(edge)
            labeling.assign(HalfEdge(node, edge), DUMMY)
        elif rank == 2:
            colour = classic[edge]
            for node in semigraph.endpoints(edge):
                labeling.assign(HalfEdge(node, edge), (rank2_degree[node], colour))
    return labeling


def oracle_matching(semigraph, classic):
    matched_nodes = set()
    for edge in classic:
        matched_nodes.update(semigraph.endpoints(edge))
    labeling = HalfEdgeLabeling()
    for edge in semigraph.edges:
        rank = semigraph.rank(edge)
        if rank == 1:
            (node,) = semigraph.endpoints(edge)
            labeling.assign(HalfEdge(node, edge), DUMMY)
        elif rank == 2:
            for node in semigraph.endpoints(edge):
                if edge in classic:
                    label = MATCHED
                elif node in matched_nodes:
                    label = MATCHING_POINTER
                else:
                    label = UNMATCHED
                labeling.assign(HalfEdge(node, edge), label)
    return labeling


# ----------------------------------------------------------------------
# Generated semi-graphs and classic inputs
# ----------------------------------------------------------------------
def random_semigraph(rng):
    """Up to 30 nodes (some isolated) and edges of every rank, parallel
    rank-2 edges included; edge identifiers of mixed types."""
    nodes = list(range(rng.randrange(1, 31)))
    edges = {}
    for index in range(rng.randrange(0, 2 * len(nodes) + 1)):
        rank = rng.choice((0, 1, 2, 2, 2)) if len(nodes) > 1 else rng.choice((0, 1))
        endpoints = tuple(rng.sample(nodes, rank))
        edge_id = index if rng.random() < 0.5 else f"e{index}"
        edges[edge_id] = endpoints
    return SemiGraph(nodes + ["isolated"], edges)


def mis_input(semigraph, rng):
    return {v for v in semigraph.nodes if rng.random() < 0.4}


def coloring_input(semigraph, rng):
    return {v: rng.randrange(1, 6) for v in semigraph.nodes}


def edge_coloring_input(semigraph, rng):
    return {e: rng.randrange(1, 6) for e in semigraph.edges_of_rank(2)}


def matching_input(semigraph, rng):
    return {e for e in semigraph.edges_of_rank(2) if rng.random() < 0.3}


LIFTS = {
    "mis": (MaximalIndependentSetProblem(), mis_input, oracle_mis),
    "deg+1-coloring": (DegreePlusOneColoring(), coloring_input, oracle_coloring),
    "edge-coloring": (
        EdgeDegreePlusOneEdgeColoring(), edge_coloring_input, oracle_edge_coloring,
    ),
    "matching": (MaximalMatchingProblem(), matching_input, oracle_matching),
}


@pytest.mark.parametrize("name", sorted(LIFTS))
def test_one_pass_lift_equals_the_loop(name):
    problem, classic_input, oracle = LIFTS[name]
    rng = random.Random(f"lift/{name}")
    ranks = Counter()
    for _ in range(CASES):
        semigraph = random_semigraph(rng)
        ranks.update(map(semigraph.rank, semigraph.edges))
        classic = classic_input(semigraph, rng)
        lifted = problem.from_classic(semigraph, classic).as_mapping()
        assert lifted == oracle(semigraph, classic).as_mapping()
        assert all(type(half_edge) is HalfEdge for half_edge in lifted)
    assert min(ranks[rank] for rank in (0, 1, 2)) > 0

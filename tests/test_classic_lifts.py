"""The one-pass ``from_classic`` and ``to_classic`` conversions against the
per-node loops they replaced.

MIS, (deg+1)-colouring, edge colouring and matching build their labeling
in one pass over ``SemiGraph.edge_endpoints()``.  The oracles below are the
earlier implementations: a walk over the nodes (or edges) through the
``nodes`` / ``incident_edges`` frozensets with one ``assign`` per
half-edge.  Both must give the same labeling on generated semi-graphs
with rank-0, rank-1 and rank-2 edges, parallel edges and isolated nodes,
lifting arbitrary classic inputs (not only valid solutions).

The ``to_classic`` conversions (those four, (Δ+1)-colouring and sinkless
orientation) read the labeling in one pass over the same edges.  Their
oracles are the earlier per-node (or per-edge) loops.  On generated valid
labelings both give equal results of the same type; on a corrupted
labeling (a missing label, inconsistent colours, a label that is not a
pair) both raise the same exception type.
"""

import random
import re
from collections import Counter

import pytest

from repro.core.slocal import (
    coloring_oracle,
    edge_coloring_oracle,
    matching_oracle,
    mis_oracle,
    solve_edge_sequential,
    solve_node_sequential,
)
from repro.problems import (
    DUMMY,
    DegreePlusOneColoring,
    DeltaPlusOneColoring,
    EdgeDegreePlusOneEdgeColoring,
    MaximalIndependentSetProblem,
    MaximalMatchingProblem,
    verify_solution,
)
from repro.problems.matching import MATCHED, POINTER as MATCHING_POINTER, UNMATCHED
from repro.problems.mis import IN_MIS, OUT, POINTER
from repro.problems.sinkless_orientation import (
    OUT as TAIL,
    SinklessOrientationProblem,
)
from repro.semigraph import HalfEdgeLabeling, SemiGraph

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
            labeling.assign((node, edge), label)
    return labeling


def oracle_coloring(semigraph, classic):
    labeling = HalfEdgeLabeling()
    for node in semigraph.nodes:
        for edge in semigraph.incident_edges(node):
            labeling.assign((node, edge), classic[node])
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
            labeling.assign((node, edge), DUMMY)
        elif rank == 2:
            colour = classic[edge]
            for node in semigraph.endpoints(edge):
                labeling.assign((node, edge), (rank2_degree[node], colour))
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
            labeling.assign((node, edge), DUMMY)
        elif rank == 2:
            for node in semigraph.endpoints(edge):
                if edge in classic:
                    label = MATCHED
                elif node in matched_nodes:
                    label = MATCHING_POINTER
                else:
                    label = UNMATCHED
                labeling.assign((node, edge), label)
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
        assert all(type(half_edge) is tuple for half_edge in lifted)
    assert min(ranks[rank] for rank in (0, 1, 2)) > 0


# ----------------------------------------------------------------------
# to_classic: the one-pass reads against the loops they replaced
# ----------------------------------------------------------------------
def loop_mis_to_classic(semigraph, labeling):
    independent = set()
    for node in semigraph.nodes:
        if all(
            labeling[(node, edge)] == IN_MIS
            for edge in semigraph.incident_edges(node)
        ):
            independent.add(node)
    return independent


def loop_coloring_to_classic(semigraph, labeling):
    colouring = {}
    for node in semigraph.nodes:
        colours = {
            labeling[(node, edge)] for edge in semigraph.incident_edges(node)
        }
        if not colours:
            colouring[node] = 1
            continue
        if len(colours) != 1:
            raise ValueError(f"node {node!r} carries inconsistent colours: {colours!r}")
        colouring[node] = next(iter(colours))
    return colouring


def loop_edge_coloring_to_classic(semigraph, labeling):
    def is_pair_label(label):
        return (
            isinstance(label, tuple)
            and len(label) == 2
            and all(isinstance(x, int) and x >= 1 for x in label)
        )

    colouring = {}
    for edge in semigraph.edges_of_rank(2):
        labels = [labeling[h] for h in semigraph.half_edges_of_edge(edge)]
        if not all(is_pair_label(lab) for lab in labels):
            raise ValueError(f"edge {edge!r} does not carry pair labels: {labels!r}")
        colour_parts = {lab[1] for lab in labels}
        if len(colour_parts) != 1:
            raise ValueError(f"edge {edge!r} carries inconsistent colours: {labels!r}")
        colouring[edge] = labels[0][1]
    return colouring


def loop_matching_to_classic(semigraph, labeling):
    matching = set()
    for edge in semigraph.edges_of_rank(2):
        labels = [labeling[h] for h in semigraph.half_edges_of_edge(edge)]
        if labels == [MATCHED, MATCHED]:
            matching.add(edge)
    return matching


def loop_sinkless_to_classic(semigraph, labeling):
    orientation = {}
    for edge in semigraph.edges_of_rank(2):
        for node in semigraph.endpoints(edge):
            if labeling[(node, edge)] == TAIL:
                orientation[edge] = node
    return orientation


def node_rule(rule):
    return lambda semigraph, rng: solve_node_sequential(semigraph, rule)


def edge_rule(rule):
    return lambda semigraph, rng: solve_edge_sequential(semigraph, rule)


#: No generated node reaches this degree, so every orientation is valid.
_SINKLESS = SinklessOrientationProblem(min_degree=1_000)


def random_orientation(semigraph, rng):
    return _SINKLESS.from_classic(semigraph, {
        e: rng.choice(semigraph.endpoints(e)) for e in semigraph.edges_of_rank(2)
    })


#: name -> (problem, the loop oracle, a maker of valid labelings, the
#: corruptions that apply)
READS = {
    "mis": (
        MaximalIndependentSetProblem(), loop_mis_to_classic,
        node_rule(mis_oracle), ("missing",),
    ),
    "deg+1-coloring": (
        DegreePlusOneColoring(), loop_coloring_to_classic,
        node_rule(coloring_oracle), ("missing", "colour"),
    ),
    "delta+1-coloring": (
        DeltaPlusOneColoring(31), loop_coloring_to_classic,
        node_rule(coloring_oracle), ("missing", "colour"),
    ),
    "edge-coloring": (
        EdgeDegreePlusOneEdgeColoring(), loop_edge_coloring_to_classic,
        edge_rule(edge_coloring_oracle), ("missing", "colour", "non-pair"),
    ),
    "matching": (
        MaximalMatchingProblem(), loop_matching_to_classic,
        edge_rule(matching_oracle), ("missing",),
    ),
    "sinkless-orientation": (
        _SINKLESS, loop_sinkless_to_classic, random_orientation, ("missing",),
    ),
}


def outcome(read, semigraph, labels):
    """``(type of the result, result)``, or ``(exception type, None)``."""
    try:
        result = read(semigraph, HalfEdgeLabeling(labels))
    except Exception as error:  # noqa: BLE001 - compared by the caller
        return type(error), None
    return type(result), result


def corrupt(kind, name, semigraph, labels, rng):
    """One corruption of ``labels`` (a dict) and the subject it makes
    offending, or ``None`` when this labeling offers none."""
    rank2 = [h for h in sorted(labels, key=repr) if semigraph.rank(h[1]) == 2]
    if kind == "missing":
        candidates = sorted(labels, key=repr)
        if name == "mis":
            # The loop's ``all()`` stops at a node's first label that is
            # not ``M``, so only a node whose labels are all ``M`` is sure
            # to have its missing label read.
            candidates = [
                h for h in candidates
                if all(labels[h[0], e] == IN_MIS for e in semigraph.incident_edges(h[0]))
            ]
        if not candidates:
            return None
        del labels[rng.choice(candidates)]
        return None
    if kind == "colour" and name.endswith("-coloring") and name != "edge-coloring":
        half_edge = rng.choice(sorted(labels, key=repr)) if labels else None
        if half_edge is None or semigraph.degree(half_edge[0]) < 2:
            return None
        labels[half_edge] += 1
        return f"node {half_edge[0]!r}"
    if not rank2:
        return None
    half_edge = rng.choice(rank2)
    if kind == "colour":
        degree_part, colour = labels[half_edge]
        labels[half_edge] = (degree_part, colour + 1)
    else:
        labels[half_edge] = rng.choice((DUMMY, (1, 2, 3), [1, 2], (0, 1), 3, (1, "2")))
    return f"edge {half_edge[1]!r}"


@pytest.mark.parametrize("name", sorted(READS))
def test_one_pass_read_equals_the_loop(name):
    problem, loop, make_labeling, corruptions = READS[name]
    rng = random.Random(f"read/{name}")
    raised = Counter()
    for _ in range(CASES):
        semigraph = random_semigraph(rng)
        labeling = make_labeling(semigraph, rng)
        assert verify_solution(problem, semigraph, labeling).ok
        expected = outcome(loop, semigraph, labeling.as_mapping())
        assert expected[0] is not KeyError and expected[0] is not ValueError
        assert outcome(problem.to_classic, semigraph, labeling.as_mapping()) == expected

        kind = rng.choice(corruptions)
        labels = dict(labeling.as_mapping())
        subject = corrupt(kind, name, semigraph, labels, rng)
        expected = outcome(loop, semigraph, labels)
        assert outcome(problem.to_classic, semigraph, labels) == expected
        raised[expected[0]] += 1
        if subject is not None and expected[0] is ValueError:
            with pytest.raises(ValueError, match=re.escape(subject)):
                problem.to_classic(semigraph, HalfEdgeLabeling(labels))
    assert raised[KeyError] > 0
    if "colour" in corruptions:
        assert raised[ValueError] > 0

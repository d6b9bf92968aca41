"""The one-walk verifiers against the three-walk verifiers they replaced.

``verify_solution`` and the two list verifiers share one pass over the
edges.  The oracle below is the earlier implementation: one walk for
completeness, one over the nodes and one over the edges, each
configuration gathered through the repr-sorted ``half_edges_of_node``.
Both must give the same ``ok`` and the same violations on generated
labelings: valid ones from the P1/P2 rules, and the same labelings with
labels dropped, swapped, replaced by labels of the wrong type and
corrupted on rank-1 edges.
"""

import random

import pytest

from repro.core.slocal import (
    coloring_oracle,
    edge_coloring_oracle,
    matching_oracle,
    mis_oracle,
    solve_edge_sequential,
    solve_node_sequential,
)
from repro.generators import forest_union, random_tree
from repro.problems import (
    DUMMY,
    DegreePlusOneColoring,
    EdgeDegreePlusOneEdgeColoring,
    MaximalIndependentSetProblem,
    MaximalMatchingProblem,
    SinklessOrientationProblem,
    VerificationResult,
    Violation,
    verify_solution,
)
from repro.problems.lists import (
    build_edge_list_instance,
    build_node_list_instance,
    verify_edge_list_solution,
    verify_node_list_solution,
)
from repro.semigraph import (
    HalfEdge,
    HalfEdgeLabeling,
    restrict_to_edges,
    restrict_to_nodes,
    semigraph_from_graph,
)
from repro.semigraph.labeling import canonical_multiset

CASES_PER_PROBLEM = 500


# ----------------------------------------------------------------------
# The oracle: the three-walk verifiers
# ----------------------------------------------------------------------
def _configuration(labeling, half_edges):
    return canonical_multiset([labeling[h] for h in half_edges])


def oracle_verify_solution(problem, semigraph, labeling, require_complete=True):
    violations = []
    if require_complete:
        for half_edge in semigraph.half_edges():
            if not labeling.is_labeled(half_edge):
                violations.append(
                    Violation("unlabeled", half_edge, (), "half-edge has no label")
                )
    for node in semigraph.nodes:
        incident = semigraph.half_edges_of_node(node)
        if not all(labeling.is_labeled(h) for h in incident):
            continue
        config = _configuration(labeling, incident)
        if not problem.node_config_ok(config):
            violations.append(
                Violation("node", node, config, "node configuration not allowed")
            )
    for edge in semigraph.edges:
        incident = semigraph.half_edges_of_edge(edge)
        if not all(labeling.is_labeled(h) for h in incident):
            continue
        config = _configuration(labeling, incident)
        if not problem.edge_config_ok(config, semigraph.rank(edge)):
            violations.append(
                Violation("edge", edge, config, "edge configuration not allowed")
            )
    return VerificationResult(ok=not violations, violations=violations)


def _oracle_list(instance, labeling, node_ok, edge_ok):
    violations = []
    semigraph = instance.semigraph
    for half_edge in semigraph.half_edges():
        if not labeling.is_labeled(half_edge):
            violations.append(
                Violation("unlabeled", half_edge, (), "half-edge has no label")
            )
    if violations:
        return VerificationResult(ok=False, violations=violations)
    for node in semigraph.nodes:
        config = _configuration(labeling, semigraph.half_edges_of_node(node))
        if not node_ok(node, config):
            violations.append(Violation("node", node, config, "node"))
    for edge in semigraph.edges:
        config = _configuration(labeling, semigraph.half_edges_of_edge(edge))
        if not edge_ok(edge, config):
            violations.append(Violation("edge", edge, config, "edge"))
    return VerificationResult(ok=not violations, violations=violations)


def oracle_verify_node_list_solution(instance, labeling):
    return _oracle_list(
        instance,
        labeling,
        lambda node, config: instance.list_for(node).allows(config),
        lambda edge, config: instance.problem.edge_config_ok(
            config, instance.semigraph.rank(edge)
        ),
    )


def oracle_verify_edge_list_solution(instance, labeling):
    return _oracle_list(
        instance,
        labeling,
        lambda node, config: instance.problem.node_config_ok(config),
        lambda edge, config: instance.list_for(edge).allows(config),
    )


def digest(result):
    """``ok`` and the violations as a sorted ``(kind, subject, configuration)`` list."""
    violations = sorted(
        ((v.kind, repr(v.subject), v.configuration) for v in result.violations),
        key=repr,
    )
    assert result.ok == (not violations)
    return result.ok, violations


# ----------------------------------------------------------------------
# Generated semi-graphs and labelings
# ----------------------------------------------------------------------
def _orientation(semigraph, rng):
    """A random orientation: one ``OUT`` per edge, ``IN`` on the rest."""
    labels = {}
    for edge in semigraph.edges:
        endpoints = semigraph.endpoints(edge)
        tail = rng.randrange(len(endpoints)) if endpoints else 0
        for index, node in enumerate(endpoints):
            labels[HalfEdge(node, edge)] = "OUT" if index == tail else "IN"
    return HalfEdgeLabeling(labels)


def _node_rule(oracle):
    """A P1 rule run over the nodes in a random order."""

    def label(semigraph, rng):
        order = sorted(semigraph.nodes, key=repr)
        rng.shuffle(order)
        return solve_node_sequential(semigraph, oracle, order=order)

    return label


def _edge_rule(oracle):
    """A P2 rule run over the edges in a random order."""

    def label(semigraph, rng):
        order = sorted(semigraph.edges, key=repr)
        rng.shuffle(order)
        return solve_edge_sequential(semigraph, oracle, order=order)

    return label


#: name -> (problem, labeler, labels of the problem's alphabet).
PROBLEMS = {
    "mis": (MaximalIndependentSetProblem(), _node_rule(mis_oracle), ["M", "P", "O"]),
    "deg+1-coloring": (DegreePlusOneColoring(), _node_rule(coloring_oracle), [1, 2, 3, 4]),
    "edge-coloring": (
        EdgeDegreePlusOneEdgeColoring(),
        _edge_rule(edge_coloring_oracle),
        [DUMMY, (1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (1, 3)],
    ),
    "matching": (
        MaximalMatchingProblem(), _edge_rule(matching_oracle), ["M", "P", "O", DUMMY]
    ),
    "sinkless-orientation": (SinklessOrientationProblem(), _orientation, ["OUT", "IN"]),
}

#: Labels no problem accepts in any position, or only in another problem.
#: ``["M"]`` is unhashable: a predicate must reject it, not raise on it.
WRONG_TYPE = [
    None, 0, -1, 7, 2.5, "X", (1,), (0, 2), (1, 2, 3), "D", "M", "OUT", (2, 1),
    ["M"],
]


def _semigraph(rng):
    """A random tree or forest-union-2 graph, often cut to a node subset
    (rank-1 edges) and sometimes given rank-0 edges and isolated nodes."""
    n = rng.randint(1, 16)
    if rng.random() < 0.5:
        graph = random_tree(n, seed=rng.randrange(10**6))
    else:
        graph = forest_union(max(n, 2), arboricity=2, seed=rng.randrange(10**6))
    semigraph = semigraph_from_graph(graph)
    if rng.random() < 0.5:
        nodes = [v for v in sorted(graph.nodes()) if rng.random() < 0.7]
        semigraph = restrict_to_nodes(semigraph, nodes)
    if rng.random() < 0.2:
        semigraph.add_edge(("rank-0", 0), ())
    if rng.random() < 0.2:
        semigraph.add_node(("isolated", 0))
    return semigraph


def _corrupt(semigraph, labeling, alphabet, rng):
    """``labeling`` with up to three random corruptions."""
    labels = dict(labeling.items())
    half_edges = sorted(semigraph.half_edges(), key=repr)
    rank_one = [h for h in half_edges if semigraph.rank(h.edge) == 1]
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        kind = rng.choice(["drop", "swap", "wrong-type", "rank-1"])
        if not half_edges:
            break
        if kind == "drop":
            labels.pop(rng.choice(half_edges), None)
        elif kind == "swap":
            first, second = rng.choice(half_edges), rng.choice(half_edges)
            if first in labels and second in labels:
                labels[first], labels[second] = labels[second], labels[first]
        elif kind == "wrong-type":
            labels[rng.choice(half_edges)] = rng.choice(WRONG_TYPE)
        elif rank_one:
            labels[rng.choice(rank_one)] = rng.choice(alphabet + WRONG_TYPE)
    return HalfEdgeLabeling(labels)


def _drop_some(labeling, rng):
    return HalfEdgeLabeling({h: lab for h, lab in labeling.items() if rng.random() < 0.9})


# ----------------------------------------------------------------------
# The differential tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_verify_solution_matches_three_walk_oracle(name):
    problem, label, alphabet = PROBLEMS[name]
    rng = random.Random(f"verify-solution/{name}")
    outcomes = set()
    for _ in range(CASES_PER_PROBLEM):
        semigraph = _semigraph(rng)
        labeling = _corrupt(semigraph, label(semigraph, rng), alphabet, rng)
        for require_complete in (True, False):
            expected = oracle_verify_solution(problem, semigraph, labeling, require_complete)
            got = verify_solution(problem, semigraph, labeling, require_complete)
            assert digest(got) == digest(expected)
            outcomes.add(got.ok)
    # The cases reach both verdicts.
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_list_verifiers_match_three_walk_oracle(name):
    problem, label, alphabet = PROBLEMS[name]
    rng = random.Random(f"list-verifiers/{name}")
    outcomes = set()
    for case in range(CASES_PER_PROBLEM):
        semigraph = _semigraph(rng)
        solution = label(semigraph, rng)
        node_list = case % 2 == 0
        # The split of the list-variant cells: half of the edges (Π*) or
        # of the nodes (Π×) keep the labels a first solver gave them.
        units = sorted(semigraph.edges if node_list else semigraph.nodes, key=repr)
        first = {unit for unit in units if rng.random() < 0.5}
        second = set(units) - first
        restrict = restrict_to_edges if node_list else restrict_to_nodes
        partial = _drop_some(solution.restricted_to(restrict(semigraph, first)), rng)
        sub = restrict(semigraph, second)
        build = build_node_list_instance if node_list else build_edge_list_instance
        instance = build(problem, semigraph, sub, partial)
        residual = _corrupt(sub, solution.restricted_to(sub), alphabet, rng)
        if node_list:
            expected = oracle_verify_node_list_solution(instance, residual)
            got = verify_node_list_solution(instance, residual)
        else:
            expected = oracle_verify_edge_list_solution(instance, residual)
            got = verify_edge_list_solution(instance, residual)
        assert digest(got) == digest(expected)
        outcomes.add(got.ok)
    assert outcomes == {True, False}

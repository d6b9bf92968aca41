"""Additional coverage for the verification layer and transform bookkeeping."""

import random

import networkx as nx
import pytest

from repro.baselines import (
    MISAlgorithm,
    deg_plus_one_coloring,
    edge_degree_plus_one_coloring,
)
from repro.core import solve_on_tree
from repro.generators import planar_triangulation_like, random_tree
from repro.problems import (
    DegreePlusOneColoring,
    EdgeDegreePlusOneEdgeColoring,
    MaximalIndependentSetProblem,
    verify_solution,
)
from repro.problems.classic import (
    is_deg_plus_one_coloring,
    is_delta_plus_one_coloring,
    is_edge_degree_plus_one_coloring,
    is_two_delta_minus_one_edge_coloring,
)
from repro.problems.mis import IN_MIS, OUT
from repro.problems.verification import VerificationResult, Violation
from repro.semigraph import HalfEdge, HalfEdgeLabeling, semigraph_from_graph
from repro.semigraph.builders import edge_id_for

MIS = MaximalIndependentSetProblem()


class TestVerificationReporting:
    def test_partial_verification_skips_unlabeled_subjects(self):
        graph = nx.path_graph(3)
        semigraph = semigraph_from_graph(graph)
        labeling = HalfEdgeLabeling(
            {
                HalfEdge(0, edge_id_for(0, 1)): IN_MIS,
                HalfEdge(1, edge_id_for(0, 1)): OUT,
            }
        )
        strict = verify_solution(MIS, semigraph, labeling)
        assert not strict.ok
        assert all(v.kind == "unlabeled" for v in strict.violations)
        relaxed = verify_solution(MIS, semigraph, labeling, require_complete=False)
        # Node 1 and edge (1,2) are only partially labeled and therefore not
        # checked; the labeled edge (0,1) is valid, so nothing is reported.
        assert relaxed.ok

    def test_violation_rendering_and_summary(self):
        violation = Violation("node", 7, (IN_MIS, OUT), "node configuration not allowed")
        text = str(violation)
        assert "node" in text and "7" in text
        result = VerificationResult(ok=False, violations=[violation])
        assert not bool(result)
        assert "1 violations" in result.summary()
        assert VerificationResult(ok=True).summary() == "valid solution"

    def test_invalid_labels_are_reported_per_subject(self):
        graph = nx.path_graph(2)
        semigraph = semigraph_from_graph(graph)
        labeling = HalfEdgeLabeling(
            {
                HalfEdge(0, edge_id_for(0, 1)): IN_MIS,
                HalfEdge(1, edge_id_for(0, 1)): IN_MIS,
            }
        )
        result = verify_solution(MIS, semigraph, labeling)
        kinds = {v.kind for v in result.violations}
        assert kinds == {"edge"}  # both node configurations are fine (all-M)


class TestTransformBookkeeping:
    def test_labeling_covers_every_half_edge_exactly_once(self):
        tree = random_tree(80, seed=19)
        result = solve_on_tree(tree, MISAlgorithm())
        semigraph = semigraph_from_graph(tree)
        assert result.labeling.is_complete(semigraph)
        assert len(result.labeling) == 2 * tree.number_of_edges()

    def test_details_report_partition_sizes(self):
        tree = random_tree(80, seed=20)
        result = solve_on_tree(tree, MISAlgorithm())
        details = result.details
        assert details["compressed_nodes"] + details["raked_nodes"] == 80
        assert details["iterations"] >= 1
        assert isinstance(details["raked_component_diameters"], list)

    def test_repr_smoke(self):
        tree = random_tree(20, seed=21)
        result = solve_on_tree(tree, MISAlgorithm())
        assert "TransformResult" in repr(result)
        assert "RoundLedger" in repr(result.ledger)


class TestClassicPaletteFloor:
    """The classic colouring verifiers take only integer colours of at
    least 1, like the formal problems' labels."""

    @pytest.mark.parametrize("colours", [
        {0: 0, 1: -1, 2: 0},
        {0: 1, 1: 0, 2: 1},
        {0: 1, 1: None, 2: 1},
        {0: 1, 1: 2.0, 2: 1},
        {0: 1, 1: 4, 2: 1},
    ])
    def test_vertex_colours_below_one_or_not_integers_fail(self, colours):
        assert not is_deg_plus_one_coloring(nx.path_graph(3), colours)

    @pytest.mark.parametrize("colours", [
        {(0, 1): 0, (1, 2): -1},
        {(0, 1): None, (1, 2): 1},
        {(0, 1): 1, (1, 2): 4},
    ])
    def test_edge_colours_below_one_or_not_integers_fail(self, colours):
        assert not is_edge_degree_plus_one_coloring(nx.path_graph(3), colours)

    def test_budget_verifiers_refuse_none_instead_of_raising(self):
        path = nx.path_graph(3)
        assert not is_delta_plus_one_coloring(path, {0: 1, 1: None, 2: 1})
        assert not is_two_delta_minus_one_edge_coloring(
            path, {(0, 1): None, (1, 2): 1}
        )

    def test_valid_colourings_still_pass(self):
        assert is_deg_plus_one_coloring(nx.path_graph(3), {0: 1, 1: 2, 2: 1})
        assert is_edge_degree_plus_one_coloring(
            nx.path_graph(3), {(0, 1): 1, (1, 2): 2}
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_classic_and_formal_verifiers_agree_on_corruptions(self, seed):
        """Corrupt one colour of a valid colouring with 0, a negative
        colour, ``None`` or one past the budget; both verifiers must give
        the same verdict as on the formal lifting."""
        rng = random.Random(seed)
        graph = (random_tree if seed % 2 else planar_triangulation_like)(
            30 + 10 * seed, seed=seed
        )
        semigraph = semigraph_from_graph(graph)
        checks = [
            (
                DegreePlusOneColoring(),
                deg_plus_one_coloring(graph).colours,
                is_deg_plus_one_coloring,
                lambda v: graph.degree(v) + 1,
            ),
            (
                EdgeDegreePlusOneEdgeColoring(),
                edge_degree_plus_one_coloring(graph).colours,
                is_edge_degree_plus_one_coloring,
                lambda e: graph.degree(e[0]) + graph.degree(e[1]) - 1,
            ),
        ]
        for problem, colours, classic, budget in checks:
            subjects = sorted(colours, key=repr)
            cases = [dict(colours)]
            for _ in range(8):
                subject = rng.choice(subjects)
                bad = rng.choice(
                    [0, -rng.randint(1, 5), None, budget(subject) + 1]
                )
                cases.append({**colours, subject: bad})
            for case in cases:
                formal = verify_solution(
                    problem, semigraph, problem.from_classic(semigraph, case)
                )
                assert classic(graph, case) == formal.ok
            assert classic(graph, cases[0]) and not any(
                classic(graph, case) for case in cases[1:]
            )

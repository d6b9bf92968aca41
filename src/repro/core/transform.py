"""The transformation of the paper: Theorems 12 and 15 as executable pipelines.

Both pipelines take

* a problem ``Π`` in node-edge-checkable form,
* a truly local algorithm ``A`` for ``Π`` (an adapter from
  :mod:`repro.baselines.adapters`), and
* a sequential solver for the relevant list variant of ``Π``,

and produce a complete half-edge labeling of the input graph together with
a per-phase round account.

:func:`solve_on_tree` implements Algorithm 2 / Theorem 12:

1. rake-and-compress the tree with cut-off ``k = g(n)``;
2. run ``A`` on the semi-graph ``T_C`` spanned by the compressed nodes
   (maximum underlying degree at most ``k`` by Lemma 10);
3. gather every connected component of the raked part ``T_R`` (diameter
   ``O(log_k n)`` by Lemma 11) at its highest node and solve the edge-list
   variant ``Π×`` there sequentially.

:func:`solve_on_bounded_arboricity` implements Algorithm 4 / Theorem 15:

1. run the Decomposition process with ``b = 2a`` and ``k = g(n)^ρ``;
2. run ``A`` on the semi-graph spanned by the typical edges (maximum degree
   at most ``k`` by Lemma 14);
3. for every star collection ``F_{i,j}`` in turn, gather each star at its
   centre and solve the node-list variant ``Π*`` there sequentially.

When an :class:`~repro.baselines.adapters.OracleCostModel` is supplied the
cut-off ``k`` is chosen from the model's complexity function and the
``A``-phase is *additionally* charged analytically (``f(k) + log* n``
rounds) — this is how the shape of Theorem 3 is reproduced without
reimplementing the [BBKO22b] black box (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import networkx as nx

from repro.core.complexity import choose_k, log_star
from repro.core.interfaces import OracleCostModel, TrulyLocalAlgorithm
from repro.core.sequential import (
    default_edge_list_solver,
    default_node_list_solver,
)
from repro.decomposition import arboricity_decomposition, rake_and_compress
from repro.local import RoundLedger, span
from repro.problems import verify_solution
from repro.problems.lists import build_edge_list_instance, build_node_list_instance
from repro.problems.verification import VerificationResult
from repro.semigraph import (
    HalfEdgeLabeling,
    SemiGraph,
    restrict_to_edges,
    restrict_to_nodes,
    semigraph_from_graph,
)
from repro.semigraph.builders import edge_id_for

#: Extra rounds charged per gathered component beyond twice its diameter
#: (one round to learn the component is complete, one to output).
GATHER_OVERHEAD = 2
#: Rounds charged per star collection ``F_{i,j}`` (gather the star at its
#: centre and broadcast the solution back — both single-hop).
ROUNDS_PER_STAR_COLLECTION = 2


def gather_and_solve_rounds(semigraph_part: SemiGraph) -> tuple[int, list[int]]:
    """The gather-and-solve round account of the sequential phases.

    Every connected component of ``semigraph_part`` is gathered at one
    node (its diameter in rounds, all components in parallel), solved
    there, and the solution is broadcast back — ``2 · max diameter``
    plus :data:`GATHER_OVERHEAD`, or 0 when there is nothing to gather.
    Returns the charged rounds and the per-component diameters (recorded
    in the transform's run details).  Shared with the experiment layer's
    sinkless-orientation and list-variant workload families so their
    round columns stay on the same account as the transforms.
    """
    diameters = [
        semigraph_part.component_diameter(component)
        for component in semigraph_part.connected_components()
    ]
    if not diameters:
        return 0, []
    return 2 * max(diameters) + GATHER_OVERHEAD, diameters


@dataclass
class TransformResult:
    """The outcome of one transformed run."""

    problem_name: str
    n: int
    k: int
    labeling: HalfEdgeLabeling
    classic: Any
    ledger: RoundLedger
    verification: VerificationResult
    decomposition: Any
    algorithm_rounds_measured: int
    algorithm_rounds_charged: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        """Total measured rounds across all phases."""
        return self.ledger.total

    @property
    def charged_rounds(self) -> int | None:
        """Total rounds with the A-phase replaced by the analytic charge.

        ``None`` when no cost model was supplied.
        """
        if self.algorithm_rounds_charged is None:
            return None
        return (
            self.ledger.total
            - self.algorithm_rounds_measured
            + self.algorithm_rounds_charged
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransformResult(problem={self.problem_name!r}, n={self.n}, k={self.k}, "
            f"rounds={self.rounds}, valid={bool(self.verification)})"
        )


# ----------------------------------------------------------------------
# Theorem 12: node problems on trees
# ----------------------------------------------------------------------
def solve_on_tree(
    tree: nx.Graph,
    algorithm: TrulyLocalAlgorithm,
    edge_list_solver: Any | None = None,
    k: int | None = None,
    cost_model: OracleCostModel | None = None,
    verify: bool = True,
) -> TransformResult:
    """Solve ``algorithm.problem`` on a tree via the Theorem 12 pipeline."""
    problem = algorithm.problem
    if edge_list_solver is None:
        edge_list_solver = default_edge_list_solver(problem)
    n = tree.number_of_nodes()
    semigraph = semigraph_from_graph(tree)
    ledger = RoundLedger()

    if n == 0:
        labeling = HalfEdgeLabeling()
        return TransformResult(
            problem.name, 0, 0, labeling, None, ledger,
            VerificationResult(ok=True), None, 0,
        )

    complexity = cost_model.complexity if cost_model is not None else algorithm.complexity
    if k is None:
        k = choose_k(complexity, n, rho=1, minimum=2)

    decomposition = rake_and_compress(tree, k)
    ledger.charge("decomposition", decomposition.rounds)

    compressed = decomposition.compressed_nodes
    raked = decomposition.raked_nodes

    labeling_compressed = HalfEdgeLabeling()
    algorithm_rounds = 0
    compressed_degree = 0
    if compressed:
        semigraph_compressed = restrict_to_nodes(semigraph, compressed)
        compressed_degree = semigraph_compressed.underlying_degree()
        labeling_compressed, algorithm_rounds = algorithm.solve_semigraph(
            semigraph_compressed
        )
        ledger.charge("truly-local algorithm A", algorithm_rounds)

    charged = None
    if cost_model is not None:
        charged = cost_model.charged_rounds(max(compressed_degree, 1), n)

    component_diameters: list[int] = []
    labeling_raked = HalfEdgeLabeling()
    if raked:
        semigraph_raked = restrict_to_nodes(semigraph, raked)
        instance = build_edge_list_instance(
            problem, semigraph, semigraph_raked, labeling_compressed
        )
        labeling_raked = edge_list_solver.solve(instance)
        gather_rounds, component_diameters = gather_and_solve_rounds(semigraph_raked)
        ledger.charge_max("raked components (gather & solve)", gather_rounds)

    labeling = labeling_compressed.merge(labeling_raked)
    if verify:
        with span("verify"):
            verification = verify_solution(problem, semigraph, labeling)
    else:
        verification = VerificationResult(ok=True)
    classic = problem.to_classic(semigraph, labeling) if verification.ok else None

    return TransformResult(
        problem_name=problem.name,
        n=n,
        k=k,
        labeling=labeling,
        classic=classic,
        ledger=ledger,
        verification=verification,
        decomposition=decomposition,
        algorithm_rounds_measured=algorithm_rounds,
        algorithm_rounds_charged=charged,
        details={
            "compressed_nodes": len(compressed),
            "raked_nodes": len(raked),
            "compressed_underlying_degree": compressed_degree,
            "raked_component_diameters": component_diameters,
            "iterations": decomposition.iterations,
        },
    )


# ----------------------------------------------------------------------
# Theorem 15: edge problems on graphs of bounded arboricity
# ----------------------------------------------------------------------
def solve_on_bounded_arboricity(
    graph: nx.Graph,
    arboricity: int,
    algorithm: TrulyLocalAlgorithm,
    node_list_solver: Any | None = None,
    k: int | None = None,
    rho: int = 2,
    cost_model: OracleCostModel | None = None,
    verify: bool = True,
) -> TransformResult:
    """Solve ``algorithm.problem`` on a bounded-arboricity graph via Theorem 15.

    For trees pass ``arboricity=1`` — this yields the Theorem 3 pipeline.
    """
    problem = algorithm.problem
    if node_list_solver is None:
        node_list_solver = default_node_list_solver(problem)
    n = graph.number_of_nodes()
    semigraph = semigraph_from_graph(graph)
    ledger = RoundLedger()

    if n == 0:
        labeling = HalfEdgeLabeling()
        return TransformResult(
            problem.name, 0, 0, labeling, None, ledger,
            VerificationResult(ok=True), None, 0,
        )

    complexity = cost_model.complexity if cost_model is not None else algorithm.complexity
    if k is None:
        k = max(choose_k(complexity, n, rho=rho, minimum=2), 5 * arboricity)

    decomposition = arboricity_decomposition(graph, arboricity, k)
    ledger.charge("decomposition", decomposition.rounds)

    typical_ids = {edge_id_for(u, v) for u, v in decomposition.typical_edges}
    labeling_typical = HalfEdgeLabeling()
    algorithm_rounds = 0
    typical_degree = 0
    if typical_ids:
        semigraph_typical = restrict_to_edges(semigraph, typical_ids)
        typical_degree = semigraph_typical.underlying_degree()
        labeling_typical, algorithm_rounds = algorithm.solve_semigraph(semigraph_typical)
        ledger.charge("truly-local algorithm A", algorithm_rounds)

    charged = None
    if cost_model is not None:
        charged = cost_model.charged_rounds(max(typical_degree, 1), n)

    current = labeling_typical
    num_star_phases = 0
    for key in sorted(decomposition.star_collections):
        edges = decomposition.star_collections[key]
        if not edges:
            continue
        num_star_phases += 1
        star_ids = {edge_id_for(u, v) for u, v in edges}
        semigraph_stars = restrict_to_edges(semigraph, star_ids)
        instance = build_node_list_instance(problem, semigraph, semigraph_stars, current)
        labeling_stars = node_list_solver.solve(instance)
        current = current.merge(labeling_stars)
    # Algorithm 4 iterates over all 2a·3 star collections whether or not
    # they are empty; the phase cost is what the theorem's `a` term pays for.
    ledger.charge(
        "star collections (gather & solve)",
        ROUNDS_PER_STAR_COLLECTION * max(6 * arboricity, num_star_phases),
    )

    if verify:
        with span("verify"):
            verification = verify_solution(problem, semigraph, current)
    else:
        verification = VerificationResult(ok=True)
    classic = problem.to_classic(semigraph, current) if verification.ok else None

    return TransformResult(
        problem_name=problem.name,
        n=n,
        k=k,
        labeling=current,
        classic=classic,
        ledger=ledger,
        verification=verification,
        decomposition=decomposition,
        algorithm_rounds_measured=algorithm_rounds,
        algorithm_rounds_charged=charged,
        details={
            "typical_edges": len(decomposition.typical_edges),
            "atypical_edges": len(decomposition.atypical_edges),
            "typical_underlying_degree": typical_degree,
            "star_collections": len(decomposition.star_collections),
            "iterations": decomposition.iterations,
            "log_star_n": log_star(n),
            "rho": rho,
        },
    )

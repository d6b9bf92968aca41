"""Declarative scenario specifications and the built-in suite registry.

A :class:`ScenarioSpec` binds one *generator family* (random trees, forest
unions, planar-triangulation-like graphs, bounded-degree random graphs, or
the analytic pseudo-family) to one *algorithm family* (a registered truly
local baseline run directly, a :func:`~repro.core.solve_on_tree` /
:func:`~repro.core.solve_on_bounded_arboricity` transform, or an analytic
cost-model prediction) over a size sweep and a seed list.  A :class:`Suite`
is a named tuple of scenarios; the built-in suites (``paper-claims``,
``scaling``, ``stress``) are registered in :data:`SUITES`.

Everything here is plain declarative data — strings, ints and registry
lookups — so a :class:`Cell` travels to worker processes as a tiny
picklable payload and the worker re-resolves the registries locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import networkx as nx

from repro.baselines import (
    DegPlusOneColoringAlgorithm,
    EdgeColoringAlgorithm,
    MISAlgorithm,
    MaximalMatchingAlgorithm,
    OracleCostModel,
    color_forest_three,
    deg_plus_one_coloring,
    edge_degree_plus_one_coloring,
    linial_coloring,
    maximal_independent_set,
    maximal_matching,
)
from repro.core import solve_on_bounded_arboricity, solve_on_tree
from repro.core.complexity import mm_mis_tree_bound, polylog, predicted_rounds_tree
from repro.core.sequential import (
    default_edge_list_solver,
    default_node_list_solver,
)
from repro.core.transform import gather_and_solve_rounds
from repro.generators import (
    balanced_regular_tree,
    bfs_forest_parents,
    caterpillar,
    forest_union,
    grid_graph,
    path_graph,
    planar_triangulation_like,
    random_graph_with_max_degree,
    random_tree,
    spider,
    star_graph,
)
from repro.local import span
from repro.problems import verify_solution
from repro.problems.classic import (
    is_deg_plus_one_coloring,
    is_edge_degree_plus_one_coloring,
    is_maximal_independent_set,
    is_maximal_matching,
    is_proper_vertex_coloring,
)
from repro.problems.lists import (
    build_edge_list_instance,
    build_node_list_instance,
    verify_edge_list_solution,
    verify_node_list_solution,
)
from repro.problems.sinkless_orientation import (
    SinklessOrientationProblem,
    greedy_sinkless_orientation,
    is_sinkless_orientation,
)
from repro.semigraph import (
    HalfEdgeLabeling,
    restrict_to_edges,
    restrict_to_nodes,
    semigraph_from_graph,
)
from repro.semigraph.builders import edge_id_for
from repro.experiments.store import cell_fingerprint

__all__ = [
    "GeneratorFamily",
    "AlgorithmFamily",
    "ScenarioSpec",
    "Cell",
    "Suite",
    "GENERATORS",
    "ALGORITHMS",
    "SUITES",
    "register_generator",
    "register_algorithm",
    "register_suite",
    "get_suite",
    "ANALYTIC_GENERATOR",
]

#: Name of the pseudo-generator for analytic (cost-model) cells.
ANALYTIC_GENERATOR = "analytic"

#: Sizes of the analytic cells: n = 2^L for L large enough that the
#: asymptotic shape dominates, small enough that log₂ n stays exact.
ANALYTIC_SIZES = tuple(2**exponent for exponent in (64, 128, 256, 512, 1000))


# ----------------------------------------------------------------------
# generator families
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GeneratorFamily:
    """A named, seeded instance family.

    ``arboricity`` is the *a priori* bound handed to the bounded-arboricity
    transform; ``None`` means no bound is declared and arboricity-transform
    algorithms refuse the pairing.  ``is_forest`` gates the tree-transform
    and rooted-forest algorithms.
    """

    name: str
    description: str
    build: Callable[[int, int], nx.Graph] | None
    arboricity: int | None = None
    is_forest: bool = False


GENERATORS: dict[str, GeneratorFamily] = {}


def register_generator(family: GeneratorFamily) -> GeneratorFamily:
    if family.name in GENERATORS:
        raise ValueError(f"generator family {family.name!r} already registered")
    GENERATORS[family.name] = family
    return family


register_generator(GeneratorFamily(
    name="random-tree",
    description="uniformly random labelled tree (Prüfer sequence)",
    build=lambda n, seed: random_tree(n, seed=seed),
    arboricity=1,
    is_forest=True,
))
register_generator(GeneratorFamily(
    name="forest-union-2",
    description="union of 2 random forests on a shared node set (arboricity ≤ 2)",
    build=lambda n, seed: forest_union(n, 2, seed=seed),
    arboricity=2,
))
register_generator(GeneratorFamily(
    name="planar-triangulation",
    description="Apollonian-style planar triangulation (arboricity ≤ 3)",
    build=lambda n, seed: planar_triangulation_like(n, seed=seed),
    arboricity=3,
))
register_generator(GeneratorFamily(
    name="bounded-degree-8",
    description="random graph with maximum degree 8",
    build=lambda n, seed: random_graph_with_max_degree(n, 8, seed=seed),
    arboricity=None,
))
# Every builder must produce *exactly* n nodes: the cell's n is recorded
# in the store and drives the scaling tables and log-power fits, so a
# builder that silently rounded would mislabel the measured data.

def _build_grid(n: int, seed: int) -> nx.Graph:
    """A grid fragment with exactly ``n`` nodes: a full rows×cols grid
    plus a partial extra column (deterministic; seed ignored)."""
    rows = max(1, math.isqrt(n))
    columns = n // rows
    graph = grid_graph(rows, columns)
    # grid_graph numbers cells row-major: cell (i, j) is node i·cols + j.
    # The n - rows·cols leftover nodes form a partial extra column, each
    # wired to its row's last cell and to its column neighbour — still a
    # planar, Δ ≤ 4, arboricity ≤ 2 grid fragment.
    for extra in range(n - rows * columns):
        node = rows * columns + extra
        graph.add_edge(node, extra * columns + columns - 1)
        if extra:
            graph.add_edge(node, node - 1)
    return graph


def _build_caterpillar(n: int, seed: int) -> nx.Graph:
    """A caterpillar with exactly ``n`` nodes: 3 legs per spine node,
    remainder legs on the first spine node (seed ignored)."""
    if n < 5:
        return path_graph(n)
    spine = n // 4
    graph = caterpillar(spine, 3)  # 4·spine nodes, 0..spine-1 the spine
    for extra in range(4 * spine, n):
        graph.add_edge(0, extra)
    return graph


def _build_spider(n: int, seed: int) -> nx.Graph:
    """A spider with exactly ``n`` nodes: ~√n legs of ~√n nodes, the
    first legs one node longer to absorb the remainder (seed ignored)."""
    legs = max(2, math.isqrt(n))
    leg_length = (n - 1) // legs
    if leg_length == 0:
        return star_graph(n)
    graph = spider(legs, leg_length)  # 1 + legs·leg_length nodes
    # spider numbers legs consecutively from 1, so leg j's tip is node
    # (j+1)·leg_length; extend one leg per leftover node.
    for extra in range((n - 1) - legs * leg_length):
        tip = (extra + 1) * leg_length
        graph.add_edge(tip, 1 + legs * leg_length + extra)
    return graph


def _build_balanced_tree(n: int, seed: int) -> nx.Graph:
    """The paper's lower-bound instance: the 3-regular balanced tree with
    exactly ``n`` nodes.

    Such trees exist only at sizes ``1 + 3·(2^d − 1)`` (4, 10, 22, 46,
    94, 190, ...); other sizes are rejected rather than silently rounded,
    so the recorded ``n`` always equals the measured instance size.
    """
    depth, size = 1, 4
    while size < n:
        depth += 1
        size = 1 + 3 * (2**depth - 1)
    if size != n:
        raise ValueError(
            f"balanced-tree-3 instances exist only at sizes 1 + 3*(2^d - 1) "
            f"= 4, 10, 22, 46, 94, 190, ...; got n={n}"
        )
    return balanced_regular_tree(3, depth)


register_generator(GeneratorFamily(
    name="grid",
    description="near-square 2D grid (planar, arboricity ≤ 2; seed ignored)",
    build=_build_grid,
    arboricity=2,
))
register_generator(GeneratorFamily(
    name="caterpillar-3",
    description="caterpillar tree: path spine with 3 legs per spine node "
    "(seed ignored)",
    build=_build_caterpillar,
    arboricity=1,
    is_forest=True,
))
register_generator(GeneratorFamily(
    name="spider",
    description="spider tree: ~√n legs of ~√n nodes sharing one centre "
    "(seed ignored)",
    build=_build_spider,
    arboricity=1,
    is_forest=True,
))
register_generator(GeneratorFamily(
    name="balanced-tree-3",
    description="regular balanced tree of degree 3 — the paper's "
    "lower-bound instance; exact sizes 4, 10, 22, 46, 94, 190, ... only "
    "(seed ignored)",
    build=_build_balanced_tree,
    arboricity=1,
    is_forest=True,
))
register_generator(GeneratorFamily(
    name=ANALYTIC_GENERATOR,
    description="no graph: n is fed to the analytic complexity model",
    build=None,
    arboricity=None,
))


# ----------------------------------------------------------------------
# algorithm families
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AlgorithmFamily:
    """A named way of producing a measured (or predicted) result on a cell.

    ``run(graph, generator, n)`` returns a dict with at least ``rounds``
    (numeric) and ``verified`` (bool); optional keys: ``k``, ``extras``,
    and ``charged_rounds`` (the analytic account of a transform cell run
    under :class:`~repro.baselines.OracleCostModel` charging).  ``covers``
    names the entries of :mod:`repro.baselines` ``__all__`` the family
    exercises — the registry-completeness test checks every registered
    baseline is covered by some suite.

    ``engine`` is the family's capability flag / preference for the
    simulation engine: ``"vectorized"`` declares that the family's whole
    measured path is array-kernel capable and should run on the
    vectorized engine (:mod:`repro.local.vectorized`) by default;
    ``"auto"`` (the default) lets each inner run pick per-algorithm.  A
    CLI ``--engine`` override beats the family preference; results are
    bit-identical either way.
    """

    name: str
    description: str
    # "baseline" | "tree-transform" | "arboricity-transform" | "analytic"
    # | "orientation" | "list-variant"
    kind: str
    run: Callable[[nx.Graph | None, GeneratorFamily, int], dict]
    covers: tuple[str, ...] = ()
    requires_forest: bool = False
    engine: str = "auto"

    def compatible_with(self, generator: GeneratorFamily) -> str | None:
        """``None`` if the pairing is valid, else a human-readable reason."""
        if self.kind == "analytic":
            if generator.name != ANALYTIC_GENERATOR:
                return "analytic algorithms pair only with the 'analytic' generator"
            return None
        if generator.name == ANALYTIC_GENERATOR:
            return "the 'analytic' generator pairs only with analytic algorithms"
        if self.requires_forest and not generator.is_forest:
            return "requires a forest generator"
        if self.kind == "arboricity-transform" and generator.arboricity is None:
            return "requires a generator with a declared arboricity bound"
        return None


ALGORITHMS: dict[str, AlgorithmFamily] = {}


def register_algorithm(family: AlgorithmFamily) -> AlgorithmFamily:
    if family.name in ALGORITHMS:
        raise ValueError(f"algorithm family {family.name!r} already registered")
    ALGORITHMS[family.name] = family
    return family


def _transform_fields(result) -> dict:
    ok = bool(result.verification.ok) and result.classic is not None
    fields = {
        "rounds": result.rounds,
        "verified": ok,
        "k": result.k,
        "extras": {"phases": result.ledger.breakdown()},
    }
    if result.charged_rounds is not None:
        fields["charged_rounds"] = result.charged_rounds
        fields["extras"]["algorithm_rounds_measured"] = result.algorithm_rounds_measured
        fields["extras"]["algorithm_rounds_charged"] = result.algorithm_rounds_charged
    return fields


def _run_tree_transform(adapter_factory, cost_model: OracleCostModel | None = None):
    def run(graph, generator, n):
        return _transform_fields(
            solve_on_tree(graph, adapter_factory(), cost_model=cost_model)
        )
    return run


def _run_arboricity_transform(
    adapter_factory, cost_model: OracleCostModel | None = None
):
    def run(graph, generator, n):
        result = solve_on_bounded_arboricity(
            graph, generator.arboricity, adapter_factory(), cost_model=cost_model
        )
        return _transform_fields(result)
    return run


def _run_baseline_deg_plus_one(graph, generator, n):
    run = deg_plus_one_coloring(graph)
    with span("verify"):
        verified = is_deg_plus_one_coloring(graph, run.colours)
    return {
        "rounds": run.rounds,
        "verified": verified,
        "extras": {"palette_after_linial": run.palette_after_linial},
    }


def _run_baseline_edge_coloring(graph, generator, n):
    run = edge_degree_plus_one_coloring(graph)
    with span("verify"):
        verified = is_edge_degree_plus_one_coloring(graph, run.colours)
    return {
        "rounds": run.rounds,
        "verified": verified,
        "extras": {"colours_used": len(set(run.colours.values()))},
    }


def _run_baseline_mis(graph, generator, n):
    run = maximal_independent_set(graph)
    with span("verify"):
        verified = is_maximal_independent_set(graph, run.independent_set)
    return {
        "rounds": run.rounds,
        "verified": verified,
        "extras": {"mis_size": len(run.independent_set)},
    }


def _run_baseline_matching(graph, generator, n):
    run = maximal_matching(graph)
    with span("verify"):
        verified = is_maximal_matching(graph, [tuple(e) for e in run.matching])
    return {
        "rounds": run.rounds,
        "verified": verified,
        "extras": {"matching_size": len(run.matching)},
    }


def _run_baseline_linial(graph, generator, n):
    colours, palette, rounds = linial_coloring(graph)
    with span("verify"):
        verified = is_proper_vertex_coloring(graph, colours) and (
            max(colours.values(), default=1) <= palette
        )
    return {
        "rounds": rounds,
        "verified": verified,
        "extras": {"palette": palette},
    }


def _run_baseline_forest_three(graph, generator, n):
    colours, rounds = color_forest_three(graph, bfs_forest_parents(graph))
    with span("verify"):
        verified = is_proper_vertex_coloring(graph, colours) and (
            max(colours.values(), default=1) <= 3
        )
    return {"rounds": rounds, "verified": verified}


def _run_analytic(predict):
    def run(graph, generator, n):
        value = float(predict(n))
        return {"rounds": value, "verified": value > 0}
    return run


# ----------------------------------------------------------------------
# sinkless orientation and the Π* / Π× list variants as workloads
# ----------------------------------------------------------------------
#: The standard sinkless-orientation setting: nodes of degree ≥ 3 may not
#: be sinks.  One shared instance — the problem object is stateless.
_SINKLESS = SinklessOrientationProblem(min_degree=3)


def _gather_rounds(semigraph_part) -> int:
    """The transform pipelines' gather-and-solve round account (the
    per-component diameters are not recorded here)."""
    rounds, _ = gather_and_solve_rounds(semigraph_part)
    return rounds


def _run_sinkless_orientation(graph, generator, n):
    semigraph = semigraph_from_graph(graph)
    orientation = greedy_sinkless_orientation(graph, min_degree=_SINKLESS.min_degree)
    classic = {edge_id_for(u, v): tail for (u, v), tail in orientation.items()}
    labeling = _SINKLESS.from_classic(semigraph, classic)
    with span("verify"):
        verified = (
            is_sinkless_orientation(graph, orientation, min_degree=_SINKLESS.min_degree)
            and verify_solution(_SINKLESS, semigraph, labeling).ok
            and _SINKLESS.to_classic(semigraph, labeling) == classic
        )
    constrained = sum(
        1 for node in graph.nodes() if graph.degree(node) >= _SINKLESS.min_degree
    )
    return {
        "rounds": _gather_rounds(semigraph),
        "verified": verified,
        "extras": {
            "min_degree": _SINKLESS.min_degree,
            "constrained_nodes": constrained,
            "oriented_edges": len(orientation),
        },
    }


def _split_half(items) -> tuple[set, set]:
    """Deterministically split ``items`` into two interleaved halves."""
    ordered = sorted(items, key=repr)
    first = {item for index, item in enumerate(ordered) if index % 2 == 0}
    return first, set(ordered) - first


def _run_list_variant(variant: str, adapter_factory, classic_check):
    """A measured ``Π*`` / ``Π×`` workload (Definitions 7 / 8).

    Half of the instance's units — edges for the node-list form ``Π*``,
    nodes for the edge-list form ``Π×`` — are solved by the truly local
    baseline; the residual list instance induced on the other half (the
    Algorithm 4 / Algorithm 2, line 2 construction) is solved by the
    registered sequential solver and charged with the gather-and-solve
    account.  Verification checks the list solution, the merged global
    labeling, and the classic formulation.
    """
    node_list = variant == "node-list"
    if not node_list and variant != "edge-list":
        raise ValueError(f"unknown list variant {variant!r}")
    restrict = restrict_to_edges if node_list else restrict_to_nodes
    build_instance = (
        build_node_list_instance if node_list else build_edge_list_instance
    )
    default_solver = (
        default_node_list_solver if node_list else default_edge_list_solver
    )
    verify_list = (
        verify_node_list_solution if node_list else verify_edge_list_solution
    )
    unit = "edges" if node_list else "nodes"

    def run(graph, generator, n):
        adapter = adapter_factory()
        problem = adapter.problem
        semigraph = semigraph_from_graph(graph)
        first, second = _split_half(
            semigraph.edges if node_list else semigraph.nodes
        )
        rounds = 0
        partial = HalfEdgeLabeling()
        if first:
            partial, algorithm_rounds = adapter.solve_semigraph(
                restrict(semigraph, first)
            )
            rounds += algorithm_rounds
        semigraph_second = restrict(semigraph, second)
        instance = build_instance(problem, semigraph, semigraph_second, partial)
        residual = default_solver(problem).solve(instance)
        rounds += _gather_rounds(semigraph_second)
        merged = partial.merge(residual)
        with span("verify"):
            verified = (
                verify_list(instance, residual).ok
                and verify_solution(problem, semigraph, merged).ok
            )
            classic = problem.to_classic(semigraph, merged) if verified else None
            verified = verified and classic_check(graph, classic)
        return {
            "rounds": rounds,
            "verified": verified,
            "extras": {
                "list_variant": variant,
                f"baseline_{unit}": len(first),
                f"list_{unit}": len(second),
            },
        }

    return run


register_algorithm(AlgorithmFamily(
    name="tree-deg+1-coloring",
    description="Theorem 12 transform of the (deg+1)-colouring baseline on trees",
    kind="tree-transform",
    run=_run_tree_transform(DegPlusOneColoringAlgorithm),
    covers=("DegPlusOneColoringAlgorithm", "deg_plus_one_coloring"),
    requires_forest=True,
))
register_algorithm(AlgorithmFamily(
    name="tree-mis",
    description="Theorem 12 transform of the MIS baseline on trees",
    kind="tree-transform",
    run=_run_tree_transform(MISAlgorithm),
    covers=("MISAlgorithm", "maximal_independent_set"),
    requires_forest=True,
))
register_algorithm(AlgorithmFamily(
    name="arb-edge-coloring",
    description="Theorem 15 transform of (edge-degree+1)-edge colouring "
    "(Theorem 3 on trees)",
    kind="arboricity-transform",
    run=_run_arboricity_transform(EdgeColoringAlgorithm),
    covers=("EdgeColoringAlgorithm", "edge_degree_plus_one_coloring"),
))
register_algorithm(AlgorithmFamily(
    name="arb-matching",
    description="Theorem 15 transform of the maximal matching baseline",
    kind="arboricity-transform",
    run=_run_arboricity_transform(MaximalMatchingAlgorithm),
    covers=("MaximalMatchingAlgorithm", "maximal_matching"),
))
register_algorithm(AlgorithmFamily(
    name="baseline-deg+1-coloring",
    description="direct (deg+1)-colouring baseline, O(Δ² + log* n) rounds",
    kind="baseline",
    run=_run_baseline_deg_plus_one,
    covers=("deg_plus_one_coloring",),
    engine="vectorized",
))
register_algorithm(AlgorithmFamily(
    name="baseline-edge-coloring",
    description="direct (edge-degree+1)-edge colouring baseline",
    kind="baseline",
    run=_run_baseline_edge_coloring,
    covers=("edge_degree_plus_one_coloring",),
))
register_algorithm(AlgorithmFamily(
    name="baseline-mis",
    description="direct MIS baseline (colour-class sweep)",
    kind="baseline",
    run=_run_baseline_mis,
    covers=("maximal_independent_set",),
    engine="vectorized",
))
register_algorithm(AlgorithmFamily(
    name="baseline-matching",
    description="direct maximal matching baseline (edge-colour sweep)",
    kind="baseline",
    run=_run_baseline_matching,
    covers=("maximal_matching",),
))
register_algorithm(AlgorithmFamily(
    name="baseline-linial",
    description="Linial colour reduction to O(Δ²) colours",
    kind="baseline",
    run=_run_baseline_linial,
    covers=("linial_coloring",),
    engine="vectorized",
))
register_algorithm(AlgorithmFamily(
    name="baseline-forest-3coloring",
    description="Cole–Vishkin 3-colouring of a rooted forest",
    kind="baseline",
    run=_run_baseline_forest_three,
    covers=("color_forest_three",),
    requires_forest=True,
    engine="vectorized",
))
register_algorithm(AlgorithmFamily(
    name="predicted-edge-coloring-log12",
    description="Theorem 1 prediction f(g(n)) + log* n with f(Δ)=log¹²Δ "
    "(the BBKO22b black box of Theorem 3)",
    kind="analytic",
    run=_run_analytic(lambda n: predicted_rounds_tree(polylog(12), n)),
))
register_algorithm(AlgorithmFamily(
    name="predicted-mm-mis-barrier",
    description="the Θ(log n / log log n) MIS / matching barrier on trees",
    kind="analytic",
    run=_run_analytic(mm_mis_tree_bound),
))

# ----------------------------------------------------------------------
# charged transforms: the Theorem 3 analytic account next to the engine
# ----------------------------------------------------------------------
#: The [BBKO22b] black box behind Theorem 3: f(Δ) = log¹² Δ.  The charged
#: edge-colouring transform picks its cut-off k from this model and charges
#: the A-phase analytically while the decomposition phases stay measured.
BBKO22B_EDGE_COLORING_MODEL = OracleCostModel(
    "bbko22b-edge-coloring", polylog(12)
)
#: Self models: charge the A-phase with the baseline's own declared f —
#: read off the adapter itself, so a retuned declaration propagates — and
#: the cut-off k (and hence the measured series) matches the uncharged
#: twin family and the two columns compare like for like.
_SELF_MODELS = {
    "deg+1-coloring": OracleCostModel(
        "declared-deg+1-coloring", DegPlusOneColoringAlgorithm().complexity
    ),
    "mis": OracleCostModel("declared-mis", MISAlgorithm().complexity),
    "matching": OracleCostModel(
        "declared-matching", MaximalMatchingAlgorithm().complexity
    ),
}

register_algorithm(AlgorithmFamily(
    name="charged-arb-edge-coloring",
    description="Theorem 3 proper: the edge-colouring transform with cut-off "
    "and A-phase charge from the [BBKO22b] log¹²Δ oracle model",
    kind="arboricity-transform",
    run=_run_arboricity_transform(
        EdgeColoringAlgorithm, cost_model=BBKO22B_EDGE_COLORING_MODEL
    ),
    covers=("EdgeColoringAlgorithm", "OracleCostModel"),
))
register_algorithm(AlgorithmFamily(
    name="charged-arb-matching",
    description="Theorem 15 transform of maximal matching, A-phase charged "
    "under its own declared f (measured-vs-charged per cell)",
    kind="arboricity-transform",
    run=_run_arboricity_transform(
        MaximalMatchingAlgorithm, cost_model=_SELF_MODELS["matching"]
    ),
    covers=("MaximalMatchingAlgorithm",),
))
register_algorithm(AlgorithmFamily(
    name="charged-tree-mis",
    description="Theorem 12 transform of MIS, A-phase charged under its own "
    "declared f (measured-vs-charged per cell)",
    kind="tree-transform",
    run=_run_tree_transform(MISAlgorithm, cost_model=_SELF_MODELS["mis"]),
    covers=("MISAlgorithm",),
    requires_forest=True,
))
register_algorithm(AlgorithmFamily(
    name="charged-tree-deg+1-coloring",
    description="Theorem 12 transform of (deg+1)-colouring, A-phase charged "
    "under its own declared f (measured-vs-charged per cell)",
    kind="tree-transform",
    run=_run_tree_transform(
        DegPlusOneColoringAlgorithm, cost_model=_SELF_MODELS["deg+1-coloring"]
    ),
    covers=("DegPlusOneColoringAlgorithm",),
    requires_forest=True,
))

# ----------------------------------------------------------------------
# sinkless orientation and the list variants as measured families
# ----------------------------------------------------------------------
register_algorithm(AlgorithmFamily(
    name="sinkless-orientation",
    description="sinkless orientation (no node of degree ≥ 3 is a sink) via "
    "gather-and-solve per component, verified in the node-edge-checkable "
    "formalism and classically",
    kind="orientation",
    run=_run_sinkless_orientation,
    covers=("SinklessOrientationProblem",),
))
register_algorithm(AlgorithmFamily(
    name="node-list-edge-coloring",
    description="Π* of (edge-degree+1)-edge colouring: baseline on half the "
    "edges, Lemma 16 sequential list solver on the induced residual",
    kind="list-variant",
    run=_run_list_variant(
        "node-list",
        EdgeColoringAlgorithm,
        lambda graph, classic: is_edge_degree_plus_one_coloring(graph, classic),
    ),
    covers=("EdgeColoringAlgorithm", "build_node_list_instance"),
))
register_algorithm(AlgorithmFamily(
    name="node-list-matching",
    description="Π* of maximal matching: baseline on half the edges, "
    "Lemma 17 sequential list solver on the induced residual",
    kind="list-variant",
    run=_run_list_variant(
        "node-list",
        MaximalMatchingAlgorithm,
        lambda graph, classic: is_maximal_matching(
            graph, [tuple(edge) for edge in classic]
        ),
    ),
    covers=("MaximalMatchingAlgorithm", "build_node_list_instance"),
))
register_algorithm(AlgorithmFamily(
    name="edge-list-mis",
    description="Π× of MIS: baseline on half the nodes, greedy sequential "
    "edge-list solver on the induced residual",
    kind="list-variant",
    run=_run_list_variant(
        "edge-list",
        MISAlgorithm,
        lambda graph, classic: is_maximal_independent_set(graph, classic),
    ),
    covers=("MISAlgorithm", "build_edge_list_instance"),
))
register_algorithm(AlgorithmFamily(
    name="edge-list-coloring",
    description="Π× of (deg+1)-colouring: baseline on half the nodes, greedy "
    "sequential edge-list solver on the induced residual",
    kind="list-variant",
    run=_run_list_variant(
        "edge-list",
        DegPlusOneColoringAlgorithm,
        lambda graph, classic: is_deg_plus_one_coloring(graph, classic),
    ),
    covers=("DegPlusOneColoringAlgorithm", "build_edge_list_instance"),
))


# ----------------------------------------------------------------------
# scenarios, cells and suites
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One (scenario, n, seed) unit of work — the runner's picklable payload."""

    scenario: str
    generator: str
    algorithm: str
    n: int
    seed: int

    @property
    def fingerprint(self) -> str:
        return cell_fingerprint(self.generator, self.algorithm, self.n, self.seed)


@dataclass(frozen=True)
class ScenarioSpec:
    """A generator × algorithm pairing swept over sizes and seeds."""

    name: str
    generator: str
    algorithm: str
    sizes: tuple[int, ...]
    seeds: tuple[int, ...] = (1,)
    smoke_sizes: tuple[int, ...] | None = None

    def validate(self) -> None:
        if self.generator not in GENERATORS:
            raise ValueError(
                f"scenario {self.name!r}: unknown generator {self.generator!r} "
                f"(known: {sorted(GENERATORS)})"
            )
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"scenario {self.name!r}: unknown algorithm {self.algorithm!r} "
                f"(known: {sorted(ALGORITHMS)})"
            )
        if not self.sizes or not self.seeds:
            raise ValueError(f"scenario {self.name!r}: empty size or seed sweep")
        reason = ALGORITHMS[self.algorithm].compatible_with(GENERATORS[self.generator])
        if reason is not None:
            raise ValueError(
                f"scenario {self.name!r}: {self.algorithm!r} cannot run on "
                f"{self.generator!r}: {reason}"
            )

    @property
    def is_analytic(self) -> bool:
        return ALGORITHMS[self.algorithm].kind == "analytic"

    def cells(self, smoke: bool = False) -> Iterator[Cell]:
        """Enumerate the scenario's cells.

        Analytic cells are free to evaluate, so ``smoke`` never shrinks
        them — the Theorem 3 shape check stays intact even in CI smoke
        sweeps.
        """
        sizes, seeds = self.sizes, self.seeds
        if smoke and not self.is_analytic:
            sizes = self.smoke_sizes or tuple(sorted(self.sizes)[:2])
            seeds = self.seeds[:1]
        for n in sizes:
            for seed in seeds:
                yield Cell(self.name, self.generator, self.algorithm, n, seed)


@dataclass(frozen=True)
class Suite:
    """A named collection of scenarios run and reported together."""

    name: str
    description: str
    scenarios: tuple[ScenarioSpec, ...]

    def validate(self) -> None:
        names = [scenario.name for scenario in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"suite {self.name!r}: duplicate scenario names")
        for scenario in self.scenarios:
            scenario.validate()

    def cells(
        self,
        smoke: bool = False,
        sizes: tuple[int, ...] | None = None,
        seeds: tuple[int, ...] | None = None,
    ) -> list[Cell]:
        """All cells of the suite, deduplicated by fingerprint.

        ``sizes`` / ``seeds`` override the sweep of every *measured*
        scenario (analytic scenarios keep their asymptotic sizes — a CLI
        ``--sizes 100`` should not destroy the shape fit).
        """
        self.validate()
        cells: list[Cell] = []
        seen: set[str] = set()
        for scenario in self.scenarios:
            swept = scenario
            if not scenario.is_analytic:
                if sizes is not None:
                    swept = replace(swept, sizes=tuple(sizes), smoke_sizes=None)
                if seeds is not None:
                    swept = replace(swept, seeds=tuple(seeds))
            for cell in swept.cells(smoke=smoke):
                if cell.fingerprint in seen:
                    continue
                seen.add(cell.fingerprint)
                cells.append(cell)
        return cells


SUITES: dict[str, Suite] = {}


def register_suite(suite: Suite) -> Suite:
    if suite.name in SUITES:
        raise ValueError(f"suite {suite.name!r} already registered")
    suite.validate()
    SUITES[suite.name] = suite
    return suite


def get_suite(name: str) -> Suite:
    try:
        return SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown suite {name!r}; registered suites: {sorted(SUITES)}"
        ) from None


register_suite(Suite(
    name="paper-claims",
    description="the transforms behind Theorems 3, 12 and 15 on random trees "
    "and planar graphs, plus the analytic Theorem 3 shape cells",
    scenarios=(
        ScenarioSpec(
            name="edge-coloring/tree-transform",
            generator="random-tree",
            algorithm="arb-edge-coloring",
            sizes=(100, 300, 1000),
            seeds=(1, 2),
            smoke_sizes=(40, 80),
        ),
        ScenarioSpec(
            name="mis/tree-transform",
            generator="random-tree",
            algorithm="tree-mis",
            sizes=(100, 300, 1000),
            seeds=(1, 2),
            smoke_sizes=(40, 80),
        ),
        ScenarioSpec(
            name="matching/tree-transform",
            generator="random-tree",
            algorithm="arb-matching",
            sizes=(100, 300, 1000),
            seeds=(1, 2),
            smoke_sizes=(40, 80),
        ),
        ScenarioSpec(
            name="deg+1-coloring/tree-transform",
            generator="random-tree",
            algorithm="tree-deg+1-coloring",
            sizes=(100, 300, 1000),
            seeds=(1, 2),
            smoke_sizes=(40, 80),
        ),
        ScenarioSpec(
            name="edge-coloring/planar",
            generator="planar-triangulation",
            algorithm="arb-edge-coloring",
            sizes=(120, 250),
            seeds=(1,),
            smoke_sizes=(40,),
        ),
        ScenarioSpec(
            name="theorem3-shape/predicted",
            generator=ANALYTIC_GENERATOR,
            algorithm="predicted-edge-coloring-log12",
            sizes=ANALYTIC_SIZES,
            seeds=(0,),
        ),
        ScenarioSpec(
            name="barrier-shape/predicted",
            generator=ANALYTIC_GENERATOR,
            algorithm="predicted-mm-mis-barrier",
            sizes=ANALYTIC_SIZES,
            seeds=(0,),
        ),
    ),
))

register_suite(Suite(
    name="scaling",
    description="transforms and every direct baseline on growing random trees",
    scenarios=(
        ScenarioSpec(
            name="edge-coloring/tree-transform",
            generator="random-tree",
            algorithm="arb-edge-coloring",
            sizes=(100, 200, 400, 800, 1600),
            seeds=(1, 2, 3),
            smoke_sizes=(50, 100),
        ),
        ScenarioSpec(
            name="mis/tree-transform",
            generator="random-tree",
            algorithm="tree-mis",
            sizes=(100, 200, 400, 800, 1600),
            seeds=(1, 2, 3),
            smoke_sizes=(50, 100),
        ),
        ScenarioSpec(
            name="deg+1-coloring/baseline",
            generator="random-tree",
            algorithm="baseline-deg+1-coloring",
            sizes=(100, 200, 400, 800, 1600),
            seeds=(1, 2, 3),
            smoke_sizes=(50, 100),
        ),
        ScenarioSpec(
            name="edge-coloring/baseline",
            generator="random-tree",
            algorithm="baseline-edge-coloring",
            sizes=(100, 200, 400, 800, 1600),
            seeds=(1, 2, 3),
            smoke_sizes=(50, 100),
        ),
        ScenarioSpec(
            name="mis/baseline",
            generator="random-tree",
            algorithm="baseline-mis",
            sizes=(100, 200, 400, 800, 1600),
            seeds=(1, 2, 3),
            smoke_sizes=(50, 100),
        ),
        ScenarioSpec(
            name="matching/baseline",
            generator="random-tree",
            algorithm="baseline-matching",
            sizes=(100, 200, 400, 800, 1600),
            seeds=(1, 2, 3),
            smoke_sizes=(50, 100),
        ),
        ScenarioSpec(
            name="linial/baseline",
            generator="random-tree",
            algorithm="baseline-linial",
            sizes=(100, 200, 400, 800, 1600),
            seeds=(1, 2, 3),
            smoke_sizes=(50, 100),
        ),
        ScenarioSpec(
            name="forest-3coloring/baseline",
            generator="random-tree",
            algorithm="baseline-forest-3coloring",
            sizes=(100, 200, 400, 800, 1600),
            seeds=(1, 2, 3),
            smoke_sizes=(50, 100),
        ),
        # Sizes only reachable on the vectorized backend: the interpreted
        # engine takes minutes per cell from n ≈ 10⁵, the array kernels
        # milliseconds.  Smoke keeps one such size so CI exercises the
        # backend at a scale the interpreted engine could not smoke.
        ScenarioSpec(
            name="linial/large-vectorized",
            generator="random-tree",
            algorithm="baseline-linial",
            sizes=(50_000, 200_000, 1_000_000),
            seeds=(1,),
            smoke_sizes=(20_000,),
        ),
        ScenarioSpec(
            name="forest-3coloring/large-vectorized",
            generator="random-tree",
            algorithm="baseline-forest-3coloring",
            sizes=(50_000, 200_000, 1_000_000),
            seeds=(1,),
            smoke_sizes=(20_000,),
        ),
        ScenarioSpec(
            name="mis/large-vectorized",
            generator="random-tree",
            algorithm="baseline-mis",
            sizes=(50_000, 200_000, 1_000_000),
            seeds=(1,),
            smoke_sizes=(20_000,),
        ),
        ScenarioSpec(
            name="deg+1-coloring/large-vectorized",
            generator="random-tree",
            algorithm="baseline-deg+1-coloring",
            sizes=(50_000, 200_000, 1_000_000),
            seeds=(1,),
            smoke_sizes=(20_000,),
        ),
    ),
))

register_suite(Suite(
    name="stress",
    description="denser families: forest unions, planar triangulations and "
    "bounded-degree random graphs",
    scenarios=(
        ScenarioSpec(
            name="edge-coloring/forest-union",
            generator="forest-union-2",
            algorithm="arb-edge-coloring",
            sizes=(200, 400),
            seeds=(1, 2),
            smoke_sizes=(60,),
        ),
        ScenarioSpec(
            name="matching/forest-union",
            generator="forest-union-2",
            algorithm="arb-matching",
            sizes=(200, 400),
            seeds=(1, 2),
            smoke_sizes=(60,),
        ),
        ScenarioSpec(
            name="matching/planar",
            generator="planar-triangulation",
            algorithm="baseline-matching",
            sizes=(200, 400),
            seeds=(1, 2),
            smoke_sizes=(60,),
        ),
        ScenarioSpec(
            name="deg+1-coloring/bounded-degree",
            generator="bounded-degree-8",
            algorithm="baseline-deg+1-coloring",
            sizes=(500, 1000),
            seeds=(1, 2),
            smoke_sizes=(100,),
        ),
        ScenarioSpec(
            name="linial/bounded-degree",
            generator="bounded-degree-8",
            algorithm="baseline-linial",
            sizes=(500, 1000),
            seeds=(1, 2),
            smoke_sizes=(100,),
        ),
        ScenarioSpec(
            name="mis/bounded-degree",
            generator="bounded-degree-8",
            algorithm="baseline-mis",
            sizes=(500, 1000),
            seeds=(1, 2),
            smoke_sizes=(100,),
        ),
    ),
))

register_suite(Suite(
    name="workloads",
    description="structured instance families: grids, caterpillars and "
    "spiders (deterministic shapes, one seed)",
    scenarios=(
        ScenarioSpec(
            name="edge-coloring/grid",
            generator="grid",
            algorithm="arb-edge-coloring",
            sizes=(64, 144, 256),
            seeds=(1,),
            smoke_sizes=(36,),
        ),
        ScenarioSpec(
            name="matching/grid",
            generator="grid",
            algorithm="arb-matching",
            sizes=(64, 144, 256),
            seeds=(1,),
            smoke_sizes=(36,),
        ),
        ScenarioSpec(
            name="deg+1-coloring/caterpillar",
            generator="caterpillar-3",
            algorithm="tree-deg+1-coloring",
            sizes=(80, 160, 320),
            seeds=(1,),
            smoke_sizes=(40,),
        ),
        ScenarioSpec(
            name="forest-3coloring/caterpillar",
            generator="caterpillar-3",
            algorithm="baseline-forest-3coloring",
            sizes=(80, 160, 320),
            seeds=(1,),
            smoke_sizes=(40,),
        ),
        ScenarioSpec(
            name="mis/spider",
            generator="spider",
            algorithm="tree-mis",
            sizes=(80, 160, 320),
            seeds=(1,),
            smoke_sizes=(40,),
        ),
        ScenarioSpec(
            name="forest-3coloring/spider",
            generator="spider",
            algorithm="baseline-forest-3coloring",
            sizes=(80, 160, 320),
            seeds=(1,),
            smoke_sizes=(40,),
        ),
    ),
))

register_suite(Suite(
    name="lower-bound",
    description="the paper's lower-bound instances: regular balanced trees "
    "of degree 3, plus the analytic MIS/matching barrier shape",
    scenarios=(
        ScenarioSpec(
            name="mis/balanced-tree",
            generator="balanced-tree-3",
            algorithm="tree-mis",
            sizes=(22, 46, 94, 190),
            seeds=(1,),
            smoke_sizes=(22, 46),
        ),
        ScenarioSpec(
            name="matching/balanced-tree",
            generator="balanced-tree-3",
            algorithm="arb-matching",
            sizes=(22, 46, 94, 190),
            seeds=(1,),
            smoke_sizes=(22, 46),
        ),
        ScenarioSpec(
            name="forest-3coloring/balanced-tree",
            generator="balanced-tree-3",
            algorithm="baseline-forest-3coloring",
            sizes=(22, 46, 94, 190),
            seeds=(1,),
            smoke_sizes=(22, 46),
        ),
        ScenarioSpec(
            name="barrier-shape/predicted",
            generator=ANALYTIC_GENERATOR,
            algorithm="predicted-mm-mis-barrier",
            sizes=ANALYTIC_SIZES,
            seeds=(0,),
        ),
    ),
))

register_suite(Suite(
    name="charged",
    description="transform cells run under OracleCostModel charging: the "
    "analytic Theorem 3 account (charged_rounds) next to the measured "
    "engine per scenario, plus the analytic shape cells for comparison",
    scenarios=(
        ScenarioSpec(
            name="edge-coloring/charged-tree",
            generator="random-tree",
            algorithm="charged-arb-edge-coloring",
            sizes=(100, 300, 1000),
            seeds=(1, 2),
            smoke_sizes=(40, 80),
        ),
        ScenarioSpec(
            name="edge-coloring/charged-planar",
            generator="planar-triangulation",
            algorithm="charged-arb-edge-coloring",
            sizes=(120, 250),
            seeds=(1,),
            smoke_sizes=(40,),
        ),
        ScenarioSpec(
            name="matching/charged-tree",
            generator="random-tree",
            algorithm="charged-arb-matching",
            sizes=(100, 300, 1000),
            seeds=(1, 2),
            smoke_sizes=(40, 80),
        ),
        ScenarioSpec(
            name="mis/charged-tree",
            generator="random-tree",
            algorithm="charged-tree-mis",
            sizes=(100, 300, 1000),
            seeds=(1, 2),
            smoke_sizes=(40, 80),
        ),
        ScenarioSpec(
            name="deg+1-coloring/charged-tree",
            generator="random-tree",
            algorithm="charged-tree-deg+1-coloring",
            sizes=(100, 300, 1000),
            seeds=(1, 2),
            smoke_sizes=(40, 80),
        ),
        ScenarioSpec(
            name="theorem3-shape/predicted",
            generator=ANALYTIC_GENERATOR,
            algorithm="predicted-edge-coloring-log12",
            sizes=ANALYTIC_SIZES,
            seeds=(0,),
        ),
    ),
))

register_suite(Suite(
    name="orientation-lists",
    description="sinkless orientation and the Π* / Π× list variants as "
    "measured workloads across structured and random families",
    scenarios=(
        ScenarioSpec(
            name="sinkless-orientation/grid",
            generator="grid",
            algorithm="sinkless-orientation",
            sizes=(64, 144, 256),
            seeds=(1,),
            smoke_sizes=(36,),
        ),
        ScenarioSpec(
            name="sinkless-orientation/bounded-degree",
            generator="bounded-degree-8",
            algorithm="sinkless-orientation",
            sizes=(200, 400),
            seeds=(1, 2),
            smoke_sizes=(60,),
        ),
        ScenarioSpec(
            name="sinkless-orientation/balanced-tree",
            generator="balanced-tree-3",
            algorithm="sinkless-orientation",
            sizes=(22, 46, 94, 190),
            seeds=(1,),
            smoke_sizes=(22, 46),
        ),
        ScenarioSpec(
            name="node-list-edge-coloring/random-tree",
            generator="random-tree",
            algorithm="node-list-edge-coloring",
            sizes=(100, 300, 1000),
            seeds=(1, 2),
            smoke_sizes=(40, 80),
        ),
        ScenarioSpec(
            name="node-list-matching/random-tree",
            generator="random-tree",
            algorithm="node-list-matching",
            sizes=(100, 300, 1000),
            seeds=(1, 2),
            smoke_sizes=(40, 80),
        ),
        ScenarioSpec(
            name="edge-list-mis/random-tree",
            generator="random-tree",
            algorithm="edge-list-mis",
            sizes=(100, 300, 1000),
            seeds=(1, 2),
            smoke_sizes=(40, 80),
        ),
        ScenarioSpec(
            name="edge-list-coloring/caterpillar",
            generator="caterpillar-3",
            algorithm="edge-list-coloring",
            sizes=(80, 160, 320),
            seeds=(1,),
            smoke_sizes=(40,),
        ),
    ),
))

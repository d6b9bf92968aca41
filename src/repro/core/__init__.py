"""The paper's core contribution: the truly-local-to-trees transformation.

* :mod:`repro.core.complexity` — complexity functions ``f``, the solution
  ``g(n)`` of ``g^{f(g)} = n``, and the analytic round predictions used by
  Theorems 1–3.
* :mod:`repro.core.sequential` — the sequential list solvers: the P1/P2
  rules of :mod:`repro.core.slocal` run over a list instance (Lemma 16 for
  edge colouring, Lemma 17 for maximal matching, the greedy rules for MIS
  and (deg+1)-colouring), and a generic backtracking solver for small
  components.
* :mod:`repro.core.transform` — Algorithm 2 / Theorem 12 (node problems on
  trees) and Algorithm 4 / Theorem 15 (edge problems on bounded-arboricity
  graphs), with full round accounting.
* :mod:`repro.core.slocal` — the SLOCAL(1) sequential-local formulation of
  the problem classes P1 and P2, with executable membership witnesses for
  the four problems of Section 5: the one rule per problem that every
  gathered component is solved with.
"""

from repro.core.complexity import (
    ComplexityFunction,
    linear,
    quadratic,
    polynomial,
    polylog,
    sqrt_delta_log,
    log_star,
    solve_g,
    predicted_rounds_tree,
    predicted_rounds_arboricity,
    mm_mis_tree_bound,
)
from repro.core.interfaces import OracleCostModel, TrulyLocalAlgorithm
from repro.core.sequential import (
    SequentialSolverError,
    BacktrackingListSolver,
    EdgeColoringNodeListSolver,
    MatchingNodeListSolver,
    MISEdgeListSolver,
    ColoringEdgeListSolver,
    default_edge_list_solver,
    default_node_list_solver,
)
from repro.core.transform import (
    TransformResult,
    solve_on_tree,
    solve_on_bounded_arboricity,
)
from repro.core.slocal import (
    membership_class,
    solve_edge_sequential,
    solve_node_sequential,
)

__all__ = [
    "ComplexityFunction",
    "linear",
    "quadratic",
    "polynomial",
    "polylog",
    "sqrt_delta_log",
    "log_star",
    "solve_g",
    "predicted_rounds_tree",
    "predicted_rounds_arboricity",
    "mm_mis_tree_bound",
    "OracleCostModel",
    "TrulyLocalAlgorithm",
    "default_edge_list_solver",
    "default_node_list_solver",
    "SequentialSolverError",
    "BacktrackingListSolver",
    "EdgeColoringNodeListSolver",
    "MatchingNodeListSolver",
    "MISEdgeListSolver",
    "ColoringEdgeListSolver",
    "TransformResult",
    "solve_on_tree",
    "solve_on_bounded_arboricity",
    "membership_class",
    "solve_node_sequential",
    "solve_edge_sequential",
]

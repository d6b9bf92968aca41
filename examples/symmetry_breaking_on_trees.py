"""The four symmetry-breaking problems on a regular balanced tree.

The paper's lower-bound instances are regular balanced trees; this example
runs the full transformation for MIS, (deg+1)-colouring (Theorem 12 /
class P1) and for maximal matching, (edge-degree+1)-edge colouring
(Theorem 15 / class P2) on one such tree and reports the per-phase round
accounts side by side.  It also prints the structural quantities the
theorems rely on (Lemma 10/11 for the rake-and-compress decomposition,
Lemma 13/14 for the arboricity decomposition).

Run with::

    python examples/symmetry_breaking_on_trees.py
"""

import _path  # noqa: F401

from repro.analysis import MeasurementTable
from repro.baselines import (
    DegPlusOneColoringAlgorithm,
    EdgeColoringAlgorithm,
    MISAlgorithm,
    MaximalMatchingAlgorithm,
)
from repro.core import solve_on_bounded_arboricity, solve_on_tree
from repro.generators import balanced_regular_tree
from repro.problems.classic import (
    is_deg_plus_one_coloring,
    is_edge_degree_plus_one_coloring,
    is_maximal_independent_set,
    is_maximal_matching,
)


def main() -> None:
    tree = balanced_regular_tree(degree=3, depth=7)
    n = tree.number_of_nodes()
    print(f"input: 3-regular balanced tree of depth 7, n={n}\n")

    table = MeasurementTable(
        "All four symmetry-breaking problems on the same tree",
        ["problem", "pipeline", "k", "rounds", "decomposition", "A-phase", "finish", "valid"],
    )

    runs = []

    mis = solve_on_tree(tree, MISAlgorithm())
    runs.append(("MIS", "Theorem 12", mis, is_maximal_independent_set(tree, mis.classic)))

    colouring = solve_on_tree(tree, DegPlusOneColoringAlgorithm())
    runs.append(
        ("(deg+1)-colouring", "Theorem 12", colouring, is_deg_plus_one_coloring(tree, colouring.classic))
    )

    matching = solve_on_bounded_arboricity(tree, 1, MaximalMatchingAlgorithm())
    runs.append(
        (
            "maximal matching",
            "Theorem 15",
            matching,
            is_maximal_matching(tree, [tuple(e) for e in matching.classic]),
        )
    )

    edge_colouring = solve_on_bounded_arboricity(tree, 1, EdgeColoringAlgorithm())
    runs.append(
        (
            "(edge-degree+1)-edge colouring",
            "Theorem 15",
            edge_colouring,
            is_edge_degree_plus_one_coloring(tree, dict(edge_colouring.classic)),
        )
    )

    for name, pipeline, result, classic_ok in runs:
        breakdown = result.ledger.breakdown()
        finish = (
            breakdown.get("raked components (gather & solve)", 0)
            + breakdown.get("star collections (gather & solve)", 0)
        )
        table.add_row(
            name,
            pipeline,
            result.k,
            result.rounds,
            breakdown.get("decomposition", 0),
            breakdown.get("truly-local algorithm A", 0),
            finish,
            result.verification.ok and classic_ok,
        )

    print(table.render())

    decomposition = mis.decomposition
    print("\nrake-and-compress structure (Theorem 12 path):")
    print(f"  iterations:                    {decomposition.iterations}")
    print(f"  paper bound ⌈log_k n⌉+1:       {decomposition.theoretical_iteration_bound}")
    print(f"  compressed-subgraph max degree: {decomposition.compressed_subgraph_max_degree()} (k={decomposition.k})")
    diameters = decomposition.raked_component_diameters()
    print(f"  max raked-component diameter:   {max(diameters) if diameters else 0} "
          f"(Lemma 11 bound {decomposition.lemma_11_diameter_bound()})")

    arb = edge_colouring.decomposition
    print("\narboricity decomposition structure (Theorem 15 path):")
    print(f"  iterations:                  {arb.iterations} (Lemma 13 bound {arb.theoretical_iteration_bound})")
    print(f"  typical-edge max degree:     {arb.typical_max_degree()} (k={arb.k})")
    print(f"  atypical edges / lower node: {arb.max_atypical_per_lower_endpoint()} (b={arb.b})")
    print(f"  star collections:            {len(arb.star_collections)} (all stars: {arb.star_components_are_stars()})")


if __name__ == "__main__":
    main()

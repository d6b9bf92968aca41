"""BENCH — the simulation-engine regression benchmark.

Records the wall-clock, round and message trajectory of the hot paths
every experiment cell funnels through.  Each simulator scenario that
has an array kernel is timed on both the interpreted active-set engine
and the vectorized NumPy engine, and the JSON output carries **one
record per (scenario, engine) pair** with an explicit ``engine`` field.
The two decomposition peels have a single (plain Python) implementation
and are timed once each, recorded under ``engine="interpreted"``.  The
``instance/*`` entries time what every cell pays before any engine
runs: one ``random_tree`` call and one ``Network`` built on it.  The
``semigraph/*`` entries time the layer the transform and list cells run
on: one ``solve_semigraph`` per problem (the A-phase, from the
semi-graph's adjacency to the lifted labeling), Definition 6's check of
its labeling, and the restrictions of one split of the instance.

Each entry records the fastest of three calls, each after a full
collection.  A simulator call gets a network built for it before the
clock starts, so every call fills the network's caches (the array layout,
the identifier array, the neighbour tuples) as a single run does.

Two regression gates are asserted:

* the interpreted engine stays ≥5× faster than the seed engine
  (``run_synchronous_reference``) on the n=10⁴ random tree, with
  bit-identical ``RunResult`` fields, and
* the vectorized engine stays above per-scenario speedup floors over the
  interpreted engine at n=10⁵ (forest 3-colouring ≥10×; Linial,
  colour-class MIS and Δ+1 colour reduction ≥5×), again with
  bit-identical results.

In full (non-smoke) mode the vectorized backend additionally runs the
million-node instances the interpreted engine cannot reach in reasonable
time — those records demonstrate the n=10⁶ scale and have no interpreted
counterpart.

Run the full sweep::

    PYTHONPATH=src python benchmarks/bench_engine.py

or through pytest (``pytest benchmarks/bench_engine.py``).  Set
``BENCH_SMOKE=1`` for the small CI-sized instances.  Results land in
``benchmarks/results/bench_engine.json`` (machine-readable) and
``benchmarks/results/bench_engine.txt`` (table).
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from _harness import best_of, record_json, record_table, scenario_entry  # noqa: E402

from repro.analysis import MeasurementTable  # noqa: E402
from repro.baselines.adapters import (  # noqa: E402
    EdgeColoringAlgorithm,
    MaximalMatchingAlgorithm,
    MISAlgorithm,
)
from repro.baselines.color_reduction import ColorClassReduction  # noqa: E402
from repro.baselines.coloring import deg_plus_one_coloring  # noqa: E402
from repro.baselines.forest_coloring import ForestThreeColoring  # noqa: E402
from repro.baselines.linial import LinialColoring  # noqa: E402
from repro.baselines.mis import ColorClassMIS  # noqa: E402
from repro.baselines import maximal_independent_set  # noqa: E402
from repro.decomposition import arboricity_decomposition, rake_and_compress  # noqa: E402
from repro.generators import (  # noqa: E402
    bfs_forest_parents,
    forest_union,
    random_graph_with_max_degree,
    random_tree,
)
from repro.local import (  # noqa: E402
    CellContext,
    Network,
    run_synchronous,
    run_synchronous_reference,
)
from repro.local.vectorized import run_vectorized  # noqa: E402
from repro.problems import verify_solution  # noqa: E402
from repro.semigraph import (  # noqa: E402
    restrict_to_edges,
    restrict_to_nodes,
    semigraph_from_graph,
)

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Sizes of the dual-engine sweep; the last tree size is the seed-speedup
#: scenario's size in full mode.
TREE_SIZES = [1000, 3000] if SMOKE else [1000, 10000, 30000]
SPEEDUP_N = 2000 if SMOKE else 10000
SPEEDUP_FACTOR = 5.0

#: Size of the vectorized-vs-interpreted speedup gate and its
#: per-scenario floors.  Measured at n=10⁵: forest ~50×, Linial ~10×;
#: the floors leave headroom for machine noise.
VEC_SPEEDUP_N = 20000 if SMOKE else 100_000
VEC_SPEEDUP_FLOORS = (
    {
        "linial": 3.0,
        "forest-3-coloring": 5.0,
        "color-class-mis": 3.0,
        "color-class-reduction": 3.0,
    }
    if SMOKE
    else {
        "linial": 5.0,
        "forest-3-coloring": 10.0,
        "color-class-mis": 5.0,
        "color-class-reduction": 5.0,
    }
)

#: Full-mode-only demonstration size for the vectorized backend.
FULL_SCALE_N = 1_000_000

#: Sizes of the instance-construction entries.  Smoke mode runs 10⁵ so
#: both entries stay well above the CI trajectory gate's 0.05 s floor.
INSTANCE_SIZES = [100_000] if SMOKE else [10_000, 100_000, FULL_SCALE_N]

#: Sizes of the semi-graph entries.  At the smoke size every entry stays
#: above the CI trajectory gate's 0.05 s floor (at 1.6·10⁴ the verifier
#: entries read under it).
SEMIGRAPH_SIZES = [32_000] if SMOKE else [16_000, 100_000]


def _engine_scenarios():
    """Dual-engine sweep: one entry per (scenario, engine) pair."""
    entries = []
    for n in TREE_SIZES:
        tree = random_tree(n, seed=42)
        parents = bfs_forest_parents(tree)
        for scenario, algorithm_factory, inputs in (
            ("sync/linial/random-tree", LinialColoring, None),
            ("sync/forest-3-coloring/random-tree", ForestThreeColoring, parents),
        ):
            for engine, runner in (
                ("interpreted", run_synchronous),
                ("vectorized", run_vectorized),
            ):
                result, seconds = best_of(
                    lambda network: runner(network, algorithm_factory()),
                    setup=lambda: Network(tree, node_inputs=inputs),
                )
                entries.append(scenario_entry(
                    scenario, n, seconds,
                    rounds=result.rounds, messages=result.messages_sent,
                    engine=engine,
                ))

    n = 1000 if SMOKE else 5000
    graph = random_graph_with_max_degree(n, 8, seed=7)
    for engine in ("interpreted", "vectorized"):
        with CellContext(engine):
            run, seconds = best_of(lambda: maximal_independent_set(graph))
        entries.append(scenario_entry(
            "sync/color-class-mis/bounded-degree", n, seconds,
            rounds=run.rounds, engine=engine,
        ))
    return entries


def _decomposition_scenarios():
    """The two decomposition peels, plus the generator."""
    entries = []
    n = 3000 if SMOKE else 30000
    tree = random_tree(n, seed=5)
    decomposition, seconds = best_of(lambda: rake_and_compress(tree, k=8))
    entries.append(scenario_entry(
        "decomposition/rake-compress/random-tree", n, seconds,
        rounds=decomposition.rounds, engine="interpreted",
    ))

    n = 1000 if SMOKE else 10000
    graph = forest_union(n, arboricity=3, seed=11)
    decomposition, seconds = best_of(
        lambda: arboricity_decomposition(graph, arboricity=3, k=15)
    )
    entries.append(scenario_entry(
        "decomposition/arboricity/forest-union", n, seconds,
        rounds=decomposition.rounds, engine="interpreted",
    ))

    n = 2000 if SMOKE else 20000
    _, seconds = best_of(lambda: random_graph_with_max_degree(n, 8, seed=3))
    entries.append(scenario_entry("generator/random-graph-max-degree", n, seconds))
    return entries


def _instance_scenarios():
    """Instance construction: one ``random_tree`` call and one ``Network``
    (identifiers plus the CSR index) on that tree."""
    entries = []
    for n in INSTANCE_SIZES:
        tree, seconds = best_of(lambda: random_tree(n, seed=42))
        entries.append(scenario_entry("instance/random-tree", n, seconds))
        _, seconds = best_of(lambda: Network(tree))
        entries.append(scenario_entry("instance/network", n, seconds))
    return entries


def _semigraph_scenarios():
    """One adapter run (an A-phase on the whole tree) and the verification
    of its labeling per problem, and the restrictions to both halves of
    the nodes (in both modes) and of the edges."""
    entries = []
    for n in SEMIGRAPH_SIZES:
        semigraph = semigraph_from_graph(random_tree(n, seed=42))
        for name, algorithm in (
            ("mis", MISAlgorithm()),
            ("edge-coloring", EdgeColoringAlgorithm()),
            ("matching", MaximalMatchingAlgorithm()),
        ):
            (labeling, _), seconds = best_of(
                lambda: algorithm.solve_semigraph(semigraph)
            )
            entries.append(
                scenario_entry(f"semigraph/adapter/{name}/random-tree", n, seconds)
            )
            result, seconds = best_of(
                lambda: verify_solution(algorithm.problem, semigraph, labeling)
            )
            assert result.ok, result.summary()
            entries.append(
                scenario_entry(f"semigraph/verify/{name}/random-tree", n, seconds)
            )

        nodes = sorted(semigraph.nodes, key=repr)
        edges = sorted(semigraph.edges, key=repr)

        def restrict():
            for part in (nodes[0::2], nodes[1::2]):
                restrict_to_nodes(semigraph, part)
                restrict_to_nodes(semigraph, part, keep_boundary_edges=False)
            for part in (edges[0::2], edges[1::2]):
                restrict_to_edges(semigraph, part)

        _, seconds = best_of(restrict)
        entries.append(scenario_entry("semigraph/restrict/random-tree", n, seconds))
    return entries


def _speedup_scenario():
    """Fast vs. seed engine on the n=SPEEDUP_N random tree.

    Returns (entries, speedups); asserts identical RunResult fields.
    """
    tree = random_tree(SPEEDUP_N, seed=42)
    parents = bfs_forest_parents(tree)
    entries = []
    speedups = {}
    for algorithm_factory, inputs, name in (
        (LinialColoring, None, "linial"),
        (ForestThreeColoring, parents, "forest-3-coloring"),
    ):
        fast, fast_seconds = best_of(
            lambda network: run_synchronous(network, algorithm_factory()),
            setup=lambda: Network(tree, node_inputs=inputs),
        )
        reference, reference_seconds = best_of(
            lambda network: run_synchronous_reference(network, algorithm_factory()),
            setup=lambda: Network(tree, node_inputs=inputs),
        )
        assert fast.rounds == reference.rounds
        assert fast.messages_sent == reference.messages_sent
        assert fast.outputs == reference.outputs
        speedup = reference_seconds / fast_seconds
        speedups[name] = speedup
        entries.append(
            scenario_entry(
                f"speedup/{name}/random-tree",
                SPEEDUP_N,
                fast_seconds,
                rounds=fast.rounds,
                messages=fast.messages_sent,
                engine="interpreted",
                reference_wall_clock_s=round(reference_seconds, 6),
                speedup=round(speedup, 2),
            )
        )
    return entries, speedups


def _vectorized_speedup_scenario():
    """Vectorized vs. interpreted engine on the n=VEC_SPEEDUP_N tree.

    Returns (entries, speedups); asserts bit-identical RunResult fields.
    One entry per engine, the vectorized one carrying the speedup.
    """
    tree = random_tree(VEC_SPEEDUP_N, seed=42)
    parents = bfs_forest_parents(tree)
    coloring = deg_plus_one_coloring(tree)
    num_classes = max(coloring.colours.values(), default=1)
    colour_inputs = dict(coloring.colours)
    shared = {"num_classes": num_classes}
    entries = []
    speedups = {}
    for algorithm_factory, build_network, name in (
        (LinialColoring, lambda: Network(tree), "linial"),
        (
            ForestThreeColoring,
            lambda: Network(tree, node_inputs=parents),
            "forest-3-coloring",
        ),
        (
            ColorClassMIS,
            lambda: Network(tree, node_inputs=colour_inputs, shared=shared),
            "color-class-mis",
        ),
        (
            ColorClassReduction,
            lambda: Network(tree, node_inputs=colour_inputs, shared=shared),
            "color-class-reduction",
        ),
    ):
        vectorized, vectorized_seconds = best_of(
            lambda network: run_vectorized(network, algorithm_factory()),
            setup=build_network,
        )
        interpreted, interpreted_seconds = best_of(
            lambda network: run_synchronous(network, algorithm_factory()),
            setup=build_network,
        )
        assert vectorized.rounds == interpreted.rounds
        assert vectorized.messages_sent == interpreted.messages_sent
        assert vectorized.outputs == interpreted.outputs
        speedup = interpreted_seconds / vectorized_seconds
        speedups[name] = speedup
        scenario = f"vectorized-speedup/{name}/random-tree"
        entries.append(scenario_entry(
            scenario, VEC_SPEEDUP_N, interpreted_seconds,
            rounds=interpreted.rounds, messages=interpreted.messages_sent,
            engine="interpreted",
        ))
        entries.append(scenario_entry(
            scenario, VEC_SPEEDUP_N, vectorized_seconds,
            rounds=vectorized.rounds, messages=vectorized.messages_sent,
            engine="vectorized",
            speedup=round(speedup, 2),
        ))
    return entries, speedups


def _full_scale_scenarios():
    """Million-node vectorized runs the interpreted engine cannot reach."""
    entries = []
    tree = random_tree(FULL_SCALE_N, seed=42)
    parents = bfs_forest_parents(tree)
    for algorithm_factory, inputs, name in (
        (LinialColoring, None, "linial"),
        (ForestThreeColoring, parents, "forest-3-coloring"),
    ):
        result, seconds = best_of(
            lambda network: run_vectorized(network, algorithm_factory()),
            setup=lambda: Network(tree, node_inputs=inputs),
        )
        entries.append(scenario_entry(
            f"full-scale/{name}/random-tree", FULL_SCALE_N, seconds,
            rounds=result.rounds, messages=result.messages_sent,
            engine="vectorized",
        ))
    return entries


def run_bench(check_speedup: bool = True) -> list:
    """Run every scenario, write table + JSON, return the JSON entries."""
    table = MeasurementTable(
        "BENCH: simulation engine (wall-clock per scenario and engine)",
        ["scenario", "engine", "n", "wall clock [s]", "rounds", "messages"],
    )
    entries = []

    def add(entry, label=None):
        entries.append(entry)
        table.add_row(
            label if label is not None else entry["scenario"],
            entry.get("engine") or "-",
            entry["n"],
            entry["wall_clock_s"],
            entry["rounds"] if entry["rounds"] is not None else "-",
            entry["messages"] if entry["messages"] is not None else "-",
        )

    for entry in _engine_scenarios():
        add(entry)
    for entry in _decomposition_scenarios():
        add(entry)
    for entry in _instance_scenarios():
        add(entry)
    for entry in _semigraph_scenarios():
        add(entry)

    speedup_entries, speedups = _speedup_scenario()
    for entry in speedup_entries:
        add(entry, label=f"{entry['scenario']} ({entry['speedup']}x vs seed)")

    vec_entries, vec_speedups = _vectorized_speedup_scenario()
    for entry in vec_entries:
        label = None
        if "speedup" in entry:
            label = f"{entry['scenario']} ({entry['speedup']}x vs interpreted)"
        add(entry, label=label)

    if not SMOKE:
        for entry in _full_scale_scenarios():
            add(entry)

    record_table("bench_engine", table)
    record_json(
        "bench_engine",
        entries,
        meta={
            "smoke": SMOKE,
            "speedup_target": SPEEDUP_FACTOR,
            "speedups": speedups,
            "vectorized_speedup_floors": VEC_SPEEDUP_FLOORS,
            "vectorized_speedups": vec_speedups,
        },
    )
    if check_speedup:
        for name, speedup in speedups.items():
            assert speedup >= SPEEDUP_FACTOR, (
                f"engine speedup regressed: {name} is only {speedup:.1f}x "
                f"(target ≥{SPEEDUP_FACTOR}x) over the seed engine"
            )
        for name, speedup in vec_speedups.items():
            floor = VEC_SPEEDUP_FLOORS[name]
            assert speedup >= floor, (
                f"vectorized speedup regressed: {name} is only {speedup:.1f}x "
                f"(target ≥{floor}x) over the interpreted engine at "
                f"n={VEC_SPEEDUP_N}"
            )
    return entries


def test_bench_engine_and_speedup():
    entries = run_bench(check_speedup=True)
    assert any(entry["scenario"].startswith("speedup/") for entry in entries)
    assert any(
        entry["scenario"].startswith("vectorized-speedup/")
        and entry.get("engine") == "vectorized"
        for entry in entries
    )


if __name__ == "__main__":
    run_bench(check_speedup=True)
    print("bench_engine: all scenarios recorded, speedup targets met")

"""Outside-in layer tracer: wrap each layer's public functions and record spans.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` replaces
every listed function at each module or class attribute where callers
bind it, so a call through ``repro.core.transform.rake_and_compress`` or
``SemiGraph.underlying_graph`` lands in a wrapper that records one span:
name, layer, start, end, parent span, cell fingerprint, pid and the
counts listed in :data:`COUNTS`.  A target that no longer resolves raises
:class:`TraceTargetError`, so a rename fails the run instead of silently
zeroing a layer.

Spans stay in memory.  Forked sweep workers inherit the wrappers; each
worker appends its spans to its own file when a cell ends, and
:meth:`Tracer.collect` merges those files into the traced process's list.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from pathlib import Path

#: (layer, "module:qualname") of every wrapped public function.
TARGETS: tuple[tuple[str, str], ...] = tuple(
    ("generators", f"repro.generators.{module}:{name}")
    for module, names in (
        ("trees", (
            "balanced_regular_tree", "bfs_forest_parents", "binary_tree",
            "broom", "caterpillar", "path_graph", "random_tree", "spider",
            "star_graph",
        )),
        ("bounded_arboricity", (
            "forest_union", "grid_graph", "planar_triangulation_like",
            "random_graph_with_max_degree",
        )),
    )
    for name in names
) + (
    ("local.network", "repro.local.network:Network.__init__"),
    ("local.simulate", "repro.local.simulator:run_synchronous"),
    ("local.simulate", "repro.local.simulator:run_synchronous_reference"),
    ("local.simulate", "repro.local.vectorized:run_vectorized"),
    ("decomposition", "repro.decomposition.rake_compress:rake_and_compress"),
    ("decomposition", "repro.decomposition.arboricity:arboricity_decomposition"),
    ("baselines", "repro.baselines.linial:linial_coloring"),
    ("baselines", "repro.baselines.forest_coloring:color_forest_three"),
    ("baselines", "repro.baselines.color_reduction:reduce_to_deg_plus_one"),
    ("baselines", "repro.baselines.coloring:deg_plus_one_coloring"),
    ("baselines", "repro.baselines.edge_coloring:edge_degree_plus_one_coloring"),
    ("baselines", "repro.baselines.mis:maximal_independent_set"),
    ("baselines", "repro.baselines.matching:maximal_matching"),
    ("baselines", "repro.baselines.adapters:DegPlusOneColoringAlgorithm.solve_semigraph"),
    ("baselines", "repro.baselines.adapters:MISAlgorithm.solve_semigraph"),
    ("baselines", "repro.baselines.adapters:EdgeColoringAlgorithm.solve_semigraph"),
    ("baselines", "repro.baselines.adapters:MaximalMatchingAlgorithm.solve_semigraph"),
    ("semigraph", "repro.semigraph.semigraph:SemiGraph.underlying_graph"),
    ("semigraph", "repro.semigraph:semigraph_from_graph"),
    ("semigraph", "repro.semigraph:restrict_to_nodes"),
    ("semigraph", "repro.semigraph:restrict_to_edges"),
    ("semigraph", "repro.semigraph.labeling:HalfEdgeLabeling.merge"),
    ("core.transform", "repro.core.transform:solve_on_tree"),
    ("core.transform", "repro.core.transform:solve_on_bounded_arboricity"),
    ("core.gather", "repro.core.transform:gather_and_solve_rounds"),
    ("core.sequential", "repro.core.sequential:EdgeColoringNodeListSolver.solve"),
    ("core.sequential", "repro.core.sequential:MatchingNodeListSolver.solve"),
    ("core.sequential", "repro.core.sequential:MISEdgeListSolver.solve"),
    ("core.sequential", "repro.core.sequential:ColoringEdgeListSolver.solve"),
    ("core.sequential", "repro.core.sequential:BacktrackingListSolver.solve_node_list"),
    ("core.sequential", "repro.core.sequential:BacktrackingListSolver.solve_edge_list"),
    ("problems.verify", "repro.problems.verification:verify_solution"),
    ("problems.verify", "repro.problems.lists:verify_node_list_solution"),
    ("problems.verify", "repro.problems.lists:verify_edge_list_solution"),
    ("problems.verify", "repro.problems.classic:is_proper_vertex_coloring"),
    ("problems.verify", "repro.problems.classic:is_deg_plus_one_coloring"),
    ("problems.verify", "repro.problems.classic:is_edge_degree_plus_one_coloring"),
    ("problems.verify", "repro.problems.classic:is_maximal_independent_set"),
    ("problems.verify", "repro.problems.classic:is_maximal_matching"),
    ("problems.verify", "repro.problems.sinkless_orientation:is_sinkless_orientation"),
    ("problems.list_instance", "repro.problems.lists:build_node_list_instance"),
    ("problems.list_instance", "repro.problems.lists:build_edge_list_instance"),
    ("experiments.cell", "repro.experiments.runner:run_cell"),
    ("experiments.sweep", "repro.experiments.runner:SweepRunner.run"),
    ("experiments.plan", "repro.experiments.runner:SweepRunner.pending_cells"),
    ("experiments.store", "repro.experiments.store:ResultStore.append"),
    ("experiments.report", "repro.experiments.report:build_report"),
)


def _graph_nodes(args, result):
    number_of_nodes = getattr(result, "number_of_nodes", None)
    return {"nodes": number_of_nodes()} if number_of_nodes is not None else None


UNDERLYING_GRAPH = "repro.semigraph.semigraph:SemiGraph.underlying_graph"

#: Counts recorded on the spans of a target or of a whole layer, from the
#: call's arguments and result.
COUNTS = {
    "generators": _graph_nodes,
    UNDERLYING_GRAPH: _graph_nodes,
    "local.network": lambda args, result: {"nodes": args[0].num_nodes},
    "local.simulate": lambda args, result: {
        "rounds": result.rounds, "messages": result.messages_sent,
    },
    "decomposition": lambda args, result: {"rounds": result.rounds},
    "core.gather": lambda args, result: {"components": len(result[1])},
    "experiments.cell": lambda args, result: {
        "n": args[1].n, "generator": args[1].generator,
        "algorithm": args[1].algorithm,
    },
}

#: Span file fields, in order.
FIELDS = ("name", "layer", "start", "end", "parent", "cell", "pid", "counts")


class TraceTargetError(LookupError):
    """A listed public function no longer resolves."""


def resolve(path: str):
    """``(owner, attribute, function)`` for a ``module:qualname`` target."""
    module_name, _, qualname = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *outer, attribute = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        function = getattr(owner, attribute)
    except (ImportError, AttributeError) as error:
        raise TraceTargetError(f"trace target {path} no longer resolves: {error}") from None
    if not callable(function):
        raise TraceTargetError(f"trace target {path} is not callable")
    return owner, attribute, function


class Tracer:
    def __init__(self, worker_dir: Path) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cell: str | None = None
        self._owner = os.getpid()
        self._worker_dir = worker_dir

    def install(self) -> None:
        """Wrap every target at every binding site; resolve all first."""
        resolved = [(layer, path, *resolve(path)) for layer, path in TARGETS]
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for layer, path, owner, attribute, function in resolved:
            wrapper = self._wrap(layer, path, function)
            if isinstance(owner, type):
                setattr(owner, attribute, wrapper)
                continue
            for module in modules:
                names = [name for name, value in vars(module).items() if value is function]
                for name in names:
                    setattr(module, name, wrapper)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.spans, self._stack, self._cell = [], [], None

    def _wrap(self, layer: str, name: str, function):
        count = COUNTS.get(name, COUNTS.get(layer))
        is_cell = layer == "experiments.cell"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else None,
                    args[1].fingerprint if is_cell else self._cell,
                    os.getpid(), None]
            stack.append(len(spans))
            spans.append(span)
            if is_cell:
                self._cell = span[5]
            span[2] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if is_cell:
                    self._cell = None
            if count is not None:
                span[7] = count(args, result)
            if not stack and span[6] != self._owner:
                self._flush_worker()
            return result

        return wrapper

    def _flush_worker(self) -> None:
        """A forked worker finished a cell: append its spans to its file."""
        path = self._worker_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans.clear()

    def collect(self) -> list[dict]:
        """This process's spans plus every worker chunk, as span dicts with ids."""
        chunks = [self.spans]
        for path in sorted(self._worker_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                chunks += [json.loads(line) for line in handle]
        merged: list[dict] = []
        for chunk in chunks:
            offset = len(merged)
            for span in chunk:
                record = dict(zip(FIELDS, span))
                record["id"] = len(merged)
                if record["parent"] is not None:
                    record["parent"] += offset
                merged.append(record)
        return merged


def write_spans(spans: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")


def _slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(wall) against log(n); 0 with one n."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(wall, 1e-9)) for _, wall in points]
    if len(set(xs)) < 2:
        return 0.0
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def layer_metrics(spans: list[dict], jobs: int, pass_wall: float) -> dict[str, float]:
    """Per-layer self time, calls and counts of one traced pass.

    Self time is a span's duration minus the durations of its child
    spans.  ``experiments.cell.unattributed_s`` is the self time of the
    cell spans: time inside ``run_cell`` that no wrapped function names.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, int] = {}
    for span, children in zip(spans, child_time):
        layer = span["layer"]
        self_s[layer] = self_s.get(layer, 0.0) + span["end"] - span["start"] - children
        calls[layer] = calls.get(layer, 0) + 1
        counts = span["counts"] or {}
        if layer == "generators" and span["parent"] is not None \
                and spans[span["parent"]]["layer"] == "generators":
            counts = {}  # nested generator calls: count the outer graph once
        for key, value in counts.items():
            if isinstance(value, int):
                totals[f"{layer}.{key}"] = totals.get(f"{layer}.{key}", 0) + value
    underlying_calls = sum(1 for span in spans if span["name"] == UNDERLYING_GRAPH)
    cells = [
        span for span in spans
        if span["layer"] == "experiments.cell" and span["counts"]
        and span["counts"]["generator"] != "analytic"
    ]
    cell_n = sum(span["counts"]["n"] for span in cells) or 1
    cell_s = sum(span["end"] - span["start"] for span in cells) or 1.0
    all_cells_s = sum(
        span["end"] - span["start"] for span in spans
        if span["layer"] == "experiments.cell"
    )
    sweep_s = sum(
        span["end"] - span["start"] for span in spans
        if span["layer"] == "experiments.sweep"
    ) or pass_wall

    def self_of(layer: str) -> float:
        return self_s.get(layer, 0.0)

    return {
        "generators.self_s": self_of("generators"),
        "generators.calls": calls.get("generators", 0),
        "generators.nodes": totals.get("generators.nodes", 0),
        "local.network.self_s": self_of("local.network"),
        "local.network.calls": calls.get("local.network", 0),
        "local.network.node_ratio": totals.get("local.network.nodes", 0) / cell_n,
        "local.simulate.self_s": self_of("local.simulate"),
        "local.simulate.calls": calls.get("local.simulate", 0),
        "local.simulate.rounds": totals.get("local.simulate.rounds", 0),
        "local.simulate.messages": totals.get("local.simulate.messages", 0),
        "local.simulate.share": self_of("local.simulate") / cell_s,
        "decomposition.self_s": self_of("decomposition"),
        "decomposition.calls": calls.get("decomposition", 0),
        "decomposition.rounds": totals.get("decomposition.rounds", 0),
        "baselines.self_s": self_of("baselines"),
        "baselines.calls": calls.get("baselines", 0),
        "semigraph.self_s": self_of("semigraph"),
        "semigraph.underlying_graph.calls": underlying_calls,
        # underlying_graph is the only semigraph target with counts.
        "semigraph.underlying_graph.node_ratio": totals.get("semigraph.nodes", 0) / cell_n,
        "core.transform.self_s": self_of("core.transform"),
        "core.gather.self_s": self_of("core.gather"),
        "core.gather.calls": calls.get("core.gather", 0),
        "core.gather.components": totals.get("core.gather.components", 0),
        "core.sequential.self_s": self_of("core.sequential"),
        "problems.verify.self_s": self_of("problems.verify"),
        "problems.verify.calls": calls.get("problems.verify", 0),
        "problems.list_instance.self_s": self_of("problems.list_instance"),
        "experiments.cell.unattributed_s": self_of("experiments.cell"),
        "experiments.cell.time_slope": _slope([
            (span["counts"]["n"], span["end"] - span["start"]) for span in cells
        ]),
        "experiments.sweep.idle_frac": 1.0 - all_cells_s / (jobs * sweep_s),
        "experiments.store.append_s": self_of("experiments.store"),
        "experiments.plan_s": self_of("experiments.plan"),
        "experiments.report.self_s": self_of("experiments.report"),
    }

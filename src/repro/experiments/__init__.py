"""Experiment orchestration: declarative sweeps, parallel runner, JSONL store.

The subsystem that turns the fast LOCAL engine into a traffic-serving
workhorse:

* :mod:`repro.experiments.spec` — declarative :class:`ScenarioSpec`
  (generator family × algorithm family × sizes × seeds), the generator /
  algorithm registries and the built-in suites (``paper-claims``,
  ``scaling``, ``stress``, ``workloads``, ``lower-bound``, ``charged``,
  ``orientation-lists``);
* :mod:`repro.experiments.runner` — :class:`SweepRunner` runs pending
  cells in process or on a :class:`~repro.experiments.runner.WorkerPool`
  of warm worker processes, one cell per task; each cell generates the
  instance, runs the engine under one per-cell context, verifies the
  output and returns a :class:`CellResult`;
* :mod:`repro.experiments.store` — the append-only, fingerprint-keyed
  JSONL :class:`ResultStore` that makes sweeps resumable;
* :mod:`repro.experiments.report` — rebuilds the paper's scaling tables
  (with measured-vs-charged columns for cells run under
  ``OracleCostModel`` charging) and ``(log₂ n)^β`` shape fits — on either
  the measured or the charged series — from the store alone;
* :mod:`repro.experiments.cli` — the ``python -m repro.experiments``
  command line (``run`` / ``list`` / ``report``).
"""

from repro.experiments.spec import (
    ALGORITHMS,
    GENERATORS,
    SUITES,
    AlgorithmFamily,
    Cell,
    GeneratorFamily,
    ScenarioSpec,
    Suite,
    get_suite,
    register_algorithm,
    register_generator,
    register_suite,
)
from repro.experiments.store import (
    CellResult,
    DuplicateResolution,
    MergeConflict,
    MergeReport,
    ResultStore,
    cell_fingerprint,
    merge_result_files,
    resolve_duplicate,
    semantic_payload,
)
from repro.experiments.runner import SweepReport, SweepRunner, default_jobs, run_cell
from repro.experiments.report import ReportBundle, build_report
from repro.experiments.shard import ShardSpec, shard_cells

__all__ = [
    "ALGORITHMS",
    "GENERATORS",
    "SUITES",
    "AlgorithmFamily",
    "Cell",
    "GeneratorFamily",
    "ScenarioSpec",
    "Suite",
    "get_suite",
    "register_algorithm",
    "register_generator",
    "register_suite",
    "CellResult",
    "DuplicateResolution",
    "MergeConflict",
    "MergeReport",
    "ResultStore",
    "cell_fingerprint",
    "merge_result_files",
    "resolve_duplicate",
    "semantic_payload",
    "SweepReport",
    "SweepRunner",
    "default_jobs",
    "run_cell",
    "ReportBundle",
    "build_report",
    "ShardSpec",
    "shard_cells",
]

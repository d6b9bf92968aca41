"""The benchmark's four workloads: which cells each runs, and how.

Each workload is a fixed cell list built from the workload seed, run
closed loop from one process: a cell starts when the previous one
returns, or, in ``sweep-many``, when a pool worker is free.  The program
only ever sees the generated cells.  Why each
workload exists is recorded in ``perfbench/README.md``.

Library entry points are called through their modules (``runner.run_cell``,
``reporting.build_report``), never through names bound here at import
time, so the tracer's wrappers, installed after set-up, see every call.

A pass runs each step of program work (one cell, one suite sweep, the
report) inside ``timed(jobs)``, a context manager the caller supplies,
with the number of processes the step keeps busy; only those steps count
as pass time.
"""

from __future__ import annotations

import random
import shutil
from contextlib import AbstractContextManager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.experiments import report as reporting
from repro.experiments import runner, spec, store

#: Warm-up cells use cell seed 0; every workload cell seed is >= 1.
WARMUP_SEED = 0
#: 46 is a valid balanced-tree-3 size and small for every other family.
WARMUP_N = 46
#: ``sweep-many`` runs the CLI's parallel path with one worker per core
#: of the 2-vCPU box the benchmark was tuned on.
SWEEP_JOBS = 2
#: Seeds per smoke-size scenario in ``sweep-many``; 25 seeds give 735
#: measured cells, enough that per-cell fixed cost dominates the pass.
SWEEP_SEEDS = 25
#: The suites CI sweeps at smoke size.
SWEEP_SUITES = ("paper-claims", "charged", "orientation-lists")

#: Semantic fields of a cell record: the part that must be bit-identical
#: across runs of the same code ("same behaviour" in the ROADMAP).
SEMANTIC_FIELDS = ("rounds", "charged_rounds", "k", "extras", "verified")

Timed = Callable[..., AbstractContextManager]


def semantic_record(record: dict) -> dict:
    return {name: record.get(name) for name in SEMANTIC_FIELDS}


def derived_seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` cell seeds in [1, 2^31) derived from the workload seed.

    String seeding of :class:`random.Random` hashes with SHA-512, so the
    seeds do not depend on ``PYTHONHASHSEED``.
    """
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


@dataclass
class PassOutcome:
    """What one pass produced: semantic records by fingerprint, failures."""

    records: dict[str, dict]
    failures: dict[str, str]
    attempted: int
    jobs: int


@dataclass(frozen=True)
class SerialWorkload:
    """Cells run one after another through ``run_cell`` (no store)."""

    name: str
    #: (scenario label, generator, algorithm, n) per cell, in run order.
    plan: tuple[tuple[str, str, str, int], ...]

    def cells(self, seed: int) -> list[spec.Cell]:
        seeds = derived_seeds(self.name, seed, len(self.plan))
        return [
            spec.Cell(scenario, generator, algorithm, n, cell_seed)
            for (scenario, generator, algorithm, n), cell_seed in zip(self.plan, seeds)
        ]

    def warmup_cells(self) -> list[spec.Cell]:
        first: dict[str, tuple[str, str]] = {}
        for scenario, generator, algorithm, _ in self.plan:
            first.setdefault(algorithm, (scenario, generator))
        return [
            spec.Cell(scenario, generator, algorithm, WARMUP_N, WARMUP_SEED)
            for algorithm, (scenario, generator) in first.items()
        ]

    def run_pass(self, seed: int, scratch: Path, timed: Timed) -> PassOutcome:
        records: dict[str, dict] = {}
        failures: dict[str, str] = {}
        cells = self.cells(seed)
        for cell in cells:
            try:
                with timed():
                    result = runner.run_cell(self.name, cell)
            except Exception as error:  # noqa: BLE001 - a failed cell is counted
                failures[cell.fingerprint] = repr(error)
                continue
            records[cell.fingerprint] = semantic_record(result.to_record())
        return PassOutcome(records, failures, len(cells), jobs=1)


@dataclass(frozen=True)
class SweepWorkload:
    """The smoke-size cells of several suites over many derived seeds,
    run through ``SweepRunner(..., jobs=SWEEP_JOBS)`` into a fresh store,
    then ``build_report`` over the store."""

    name: str
    suites: tuple[str, ...]

    def replicated(self, suite: spec.Suite, seeds: list[int]) -> spec.Suite:
        # Suite.cells(smoke=True) keeps only a scenario's first seed, so
        # the smoke sizes and the derived seeds are spelled out instead.
        scenarios = tuple(
            scenario if scenario.is_analytic else replace(
                scenario,
                sizes=tuple(dict.fromkeys(cell.n for cell in scenario.cells(smoke=True))),
                smoke_sizes=None,
                seeds=tuple(seeds),
            )
            for scenario in suite.scenarios
        )
        return replace(suite, scenarios=scenarios)

    def warmup_cells(self) -> list[spec.Cell]:
        first: dict[str, spec.Cell] = {}
        for name in self.suites:
            for scenario in spec.get_suite(name).scenarios:
                if scenario.is_analytic or scenario.algorithm in first:
                    continue
                first[scenario.algorithm] = spec.Cell(
                    scenario.name, scenario.generator, scenario.algorithm,
                    WARMUP_N, WARMUP_SEED,
                )
        return list(first.values())

    def run_pass(self, seed: int, scratch: Path, timed: Timed) -> PassOutcome:
        seeds = derived_seeds(self.name, seed, SWEEP_SEEDS)
        results = store.ResultStore(scratch)
        failures: dict[str, str] = {}
        attempted = 0
        for name in self.suites:
            suite = self.replicated(spec.get_suite(name), seeds)
            with timed(SWEEP_JOBS):
                report = runner.SweepRunner(suite, results, jobs=SWEEP_JOBS).run()
            attempted += report.executed + len(report.failures)
            for failure in report.failures:
                failures[failure.cell.fingerprint] = failure.error
        with timed():
            stored = results.records()
            reporting.build_report(stored)
        records = {
            record["fingerprint"]: semantic_record(record) for record in stored
        }
        shutil.rmtree(scratch, ignore_errors=True)
        return PassOutcome(records, failures, attempted, jobs=SWEEP_JOBS)


# The two serial tree workloads are sized so that five or more passes fit
# in a 30 s run even when the shared machine runs at half speed: a run
# reports the median pass, and a one-pass "median" swings with every
# change of machine speed.  Network build, generators and kernels keep
# the shares they have at n = 10^5 (perfbench/README.md).
BASELINES_LARGE = SerialWorkload("baselines-large", tuple(
    (f"{family}/large-vectorized", "random-tree", algorithm, 30_000)
    for family, algorithm in (
        ("linial", "baseline-linial"),
        ("forest-3coloring", "baseline-forest-3coloring"),
        ("mis", "baseline-mis"),
        ("deg+1-coloring", "baseline-deg+1-coloring"),
    )
))

TRANSFORM_TREES = SerialWorkload("transform-trees", tuple(
    (f"{algorithm}/tree", "random-tree", algorithm, n)
    for n in (500, 1_000, 2_000)
    for algorithm in (
        "tree-mis", "tree-deg+1-coloring", "arb-edge-coloring", "arb-matching",
    )
))

ORIENTATION_LISTS = SerialWorkload("orientation-lists", (
    ("sinkless-orientation/grid", "grid", "sinkless-orientation", 576),
    ("sinkless-orientation/bounded-degree", "bounded-degree-8",
     "sinkless-orientation", 400),
) + tuple(
    (f"{algorithm}/random-tree", "random-tree", algorithm, 1_000)
    for algorithm in (
        "node-list-edge-coloring", "node-list-matching",
        "edge-list-mis", "edge-list-coloring",
    )
))

WORKLOADS: dict[str, SerialWorkload | SweepWorkload] = {
    workload.name: workload
    for workload in (
        BASELINES_LARGE,
        TRANSFORM_TREES,
        ORIENTATION_LISTS,
        SweepWorkload("sweep-many", SWEEP_SUITES),
    )
}


def warm_up(workload: SerialWorkload | SweepWorkload) -> None:
    """Run one small cell per algorithm family of the workload.

    This registers the lazy array kernels and touches every code path
    once before timing starts.  Analytic families are pure arithmetic
    and need none.
    """
    for cell in workload.warmup_cells():
        result = runner.run_cell("warm-up", cell)
        if not result.verified:
            raise RuntimeError(f"warm-up cell {cell} did not verify")

"""The parallel sweep runner: fan cells out over a process pool.

:func:`run_cell` is the worker entry point: it resolves the cell's
generator and algorithm from the registries, builds the instance, runs the
computation under a :class:`~repro.local.MessageMeter` and returns a
:class:`~repro.experiments.store.CellResult`.  It deliberately takes only
plain data (the suite name and a :class:`~repro.experiments.spec.Cell`) so
the payload shipped to worker processes stays tiny.

:class:`SweepRunner` filters a suite's cells against the store's completed
fingerprints, executes the remainder (serially for ``jobs=1``, over a
``ProcessPoolExecutor`` otherwise) and appends each result to the store
the moment it completes — a crashed sweep resumes exactly where it died.
Failed cells (exceptions) are *not* stored, so the next run retries them.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.experiments.shard import ShardSpec, shard_cells

from repro.local import EnginePolicy, MessageMeter, numpy_available
from repro.experiments.spec import ALGORITHMS, GENERATORS, Cell, Suite
from repro.experiments.store import CellResult, ResultStore
from repro.obs import PhaseTimer, span

__all__ = [
    "run_cell",
    "make_recorder",
    "CellFailure",
    "SweepReport",
    "SweepRunner",
    "default_jobs",
]


def default_jobs() -> int:
    """A conservative default worker count: the CPU count, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


def _effective_engine_mode(family_engine: str, override: str | None) -> str:
    """The engine mode a cell runs under.

    An explicit CLI/daemon ``override`` ("interpreted" / "vectorized")
    beats the family's declared preference; otherwise the family decides.
    A family-declared "vectorized" degrades to "auto" when numpy is
    missing — the capability flag is a preference, only an explicit
    override is a hard requirement.
    """
    if override in ("interpreted", "vectorized"):
        return override
    if family_engine == "vectorized" and not numpy_available():
        return "auto"
    return family_engine


def run_cell(suite_name: str, cell: Cell, engine: str | None = None) -> CellResult:
    """Execute one sweep cell and return its structured result.

    Top-level and argument-picklable by design: this is the function the
    process pool ships to workers.  ``engine`` is the sweep-level
    ``--engine`` override, resolved here into one ambient
    :class:`~repro.local.EnginePolicy` per cell; the engine that
    actually served the cell's simulator runs is recorded in
    ``CellResult.engine`` (e.g. ``"vectorized[numpy]"``) and the
    per-kernel round account in ``CellResult.engine_rounds``.

    The cell runs under an ambient :class:`~repro.obs.PhaseTimer`: the
    instance build is the ``generate`` phase, the algorithm callable is
    ``run``, and deeper layers add their own sub-spans (``verify`` from
    the suite run functions, ``simulate`` from the engines — both nested
    inside ``run``'s wall clock).  The breakdown lands on
    ``CellResult.timings`` as nonsemantic telemetry.
    """
    generator = GENERATORS[cell.generator]
    algorithm = ALGORITHMS[cell.algorithm]
    mode = _effective_engine_mode(algorithm.engine, engine)

    start = time.perf_counter()
    with PhaseTimer() as timer:
        graph = None
        if generator.build is not None:
            with span("generate"):
                graph = generator.build(cell.n, cell.seed)
        with MessageMeter() as meter, EnginePolicy(mode) as policy, span("run"):
            fields = algorithm.run(graph, generator, cell.n)
    wall_clock = time.perf_counter() - start

    messages = meter.messages if meter.runs else None
    return CellResult(
        fingerprint=cell.fingerprint,
        suite=suite_name,
        scenario=cell.scenario,
        generator=cell.generator,
        algorithm=cell.algorithm,
        n=cell.n,
        seed=cell.seed,
        rounds=fields["rounds"],
        charged_rounds=fields.get("charged_rounds"),
        messages=messages,
        wall_clock_s=wall_clock,
        verified=bool(fields["verified"]),
        k=fields.get("k"),
        extras=dict(fields.get("extras", {})),
        engine=policy.engine_used,
        engine_rounds=dict(policy.dispatches) or None,
        timings=timer.timings() or None,
    )


@dataclass
class CellFailure:
    """A cell whose worker raised; kept out of the store so it is retried."""

    cell: Cell
    error: str


@dataclass
class SweepReport:
    """Summary of one :meth:`SweepRunner.run` invocation."""

    suite: str
    total_cells: int
    skipped: int
    executed: int
    unverified: int
    failures: list[CellFailure] = field(default_factory=list)
    wall_clock_s: float = 0.0
    #: First failure of a result sink (e.g. the ``--collector`` stream).
    #: The sweep itself keeps running on the local store — the records are
    #: safe and mergeable — but the run is not ``ok``: the caller asked
    #: for streaming and part of the stream was lost.
    sink_error: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures and self.unverified == 0 and self.sink_error is None


def make_recorder(
    store: ResultStore,
    sinks: Sequence[Callable[[CellResult], None]],
    report: SweepReport,
    progress: Callable[[CellResult], None] | None = None,
) -> Callable[[CellResult], None]:
    """The per-result fan-out shared by every sweep execution path.

    Appends the result to the store, ticks the report's counters, feeds
    the sinks and then the progress hook.  A sink (e.g. the
    ``--collector`` stream) that fails must not fail the sweep: the
    result is already durable in the local store, so the first error is
    recorded once in ``report.sink_error`` and the sinks disabled —
    resume/merge recovers the lost stream.
    """
    live_sinks = list(sinks)

    def record(result: CellResult) -> None:
        store.append(result)
        report.executed += 1
        if not result.verified:
            report.unverified += 1
        if live_sinks:
            try:
                for sink in live_sinks:
                    sink(result)
            except Exception as error:  # noqa: BLE001 - surfaced in report
                report.sink_error = repr(error)
                live_sinks.clear()
        if progress is not None:
            progress(result)

    return record


class SweepRunner:
    """Run a suite's pending cells and append results to a store."""

    def __init__(
        self,
        suite: Suite,
        store: ResultStore,
        jobs: int = 1,
        smoke: bool = False,
        sizes: tuple[int, ...] | None = None,
        seeds: tuple[int, ...] | None = None,
        shard: ShardSpec | None = None,
        sinks: Sequence[Callable[[CellResult], None]] = (),
        engine: str | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        self.suite = suite
        self.store = store
        self.jobs = jobs
        self.smoke = smoke
        self.sizes = sizes
        self.seeds = seeds
        self.shard = shard
        self.sinks = tuple(sinks)
        self.engine = engine

    def pending_cells(self) -> tuple[list[Cell], int]:
        """The cells still to run, and how many the store already covers.

        With a shard spec, only the cells owned by this shard count: the
        disjoint fingerprint partition means ``k`` workers running the same
        suite as shards ``0/k .. k-1/k`` never duplicate work.
        """
        cells = self.suite.cells(smoke=self.smoke, sizes=self.sizes, seeds=self.seeds)
        cells = shard_cells(cells, self.shard)
        completed = self.store.completed_fingerprints()
        pending = [cell for cell in cells if cell.fingerprint not in completed]
        return pending, len(cells) - len(pending)

    def run(self, progress: Callable[[CellResult], None] | None = None) -> SweepReport:
        """Execute every pending cell; append each result as it completes."""
        start = time.perf_counter()
        pending, skipped = self.pending_cells()
        report = SweepReport(
            suite=self.suite.name,
            total_cells=len(pending) + skipped,
            skipped=skipped,
            executed=0,
            unverified=0,
        )

        record = make_recorder(self.store, self.sinks, report, progress)

        if self.jobs == 1 or len(pending) <= 1:
            for cell in pending:
                try:
                    record(run_cell(self.suite.name, cell, engine=self.engine))
                except Exception as error:  # noqa: BLE001 - collected, reported
                    report.failures.append(CellFailure(cell, repr(error)))
        else:
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                futures = {
                    pool.submit(run_cell, self.suite.name, cell, self.engine): cell
                    for cell in pending
                }
                remaining = set(futures)
                while remaining:
                    done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in done:
                        cell = futures[future]
                        try:
                            record(future.result())
                        except Exception as error:  # noqa: BLE001
                            report.failures.append(CellFailure(cell, repr(error)))

        report.wall_clock_s = time.perf_counter() - start
        return report

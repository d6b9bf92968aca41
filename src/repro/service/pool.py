"""A persistent worker pool for heavy sweep traffic.

:class:`~repro.experiments.runner.SweepRunner` spins up a fresh
``ProcessPoolExecutor`` per sweep and ships **one cell per task**, so a
service-style workload — many sweeps of many small cells — pays process
startup, registry import and one IPC round trip per cell, over and over.
:class:`WorkerPool` amortises all three:

* worker processes are spawned **once** and stay warm across any number of
  :meth:`submit_sweep` / :meth:`run_suite` calls (the "heavy traffic"
  front end of the daemon);
* cells are shipped in **batches** (default :data:`DEFAULT_BATCH_SIZE`
  per task), so queue round trips scale with ``cells / batch_size``
  rather than ``cells``;
* results stream back per cell as each batch completes, preserving the
  runner's append-as-you-go / resume-for-free store semantics.

The pool executes one sweep at a time (submissions serialise on an
internal lock); concurrency lives *inside* a sweep, across the worker
processes.  That is exactly the daemon's job-queue model: many clients
feed jobs into one pool, jobs run in order, each job saturates the
workers.

Workers execute cells through the same
:func:`~repro.experiments.runner.run_cell` entry point as the plain
runner, so transform cells of the ``charged`` suite run under
``OracleCostModel`` charging here too: their streamed
:class:`~repro.experiments.store.CellResult` records carry
``charged_rounds`` next to the measured ``rounds``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue as queue_module
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.experiments.runner import (
    CellFailure,
    SweepReport,
    SweepRunner,
    default_jobs,
    make_recorder,
    run_cell,
)
from repro.experiments.shard import ShardSpec
from repro.experiments.spec import Cell, Suite
from repro.experiments.store import CellResult, ResultStore
from repro.obs import MetricsRegistry

__all__ = ["DEFAULT_BATCH_SIZE", "CellOutcome", "WorkerPool", "batch_cells"]

#: Cells per task submission.  Small enough to keep all workers busy on
#: modest sweeps, large enough that queue round trips are a rounding error.
DEFAULT_BATCH_SIZE = 8


def batch_cells(cells: Sequence[Cell], batch_size: int) -> list[list[Cell]]:
    """Chunk ``cells`` into submission batches of at most ``batch_size``."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    return [
        list(cells[start:start + batch_size])
        for start in range(0, len(cells), batch_size)
    ]


@dataclass
class CellOutcome:
    """One streamed per-cell outcome of a pool sweep."""

    cell: Cell
    result: CellResult | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None


def _worker_main(tasks, results) -> None:
    """Worker loop: execute batches until the ``None`` sentinel arrives.

    Lives at module top level so it is picklable under any multiprocessing
    start method.  A cell that raises is reported as an error string and
    the rest of its batch still runs — mirroring the runner's
    failed-cells-are-retried-next-sweep policy.
    """
    while True:
        task = tasks.get()
        if task is None:
            break
        job_id, suite_name, engine, batch_index, cells = task
        outcomes = []
        for cell in cells:
            try:
                outcomes.append((cell, run_cell(suite_name, cell, engine=engine), None))
            except Exception as error:  # noqa: BLE001 - reported to the caller
                outcomes.append((cell, None, repr(error)))
        results.put((job_id, batch_index, outcomes))


class WorkerPool:
    """Warm worker processes serving batched sweep submissions.

    Usage::

        with WorkerPool(workers=4) as pool:
            report = pool.run_suite(get_suite("paper-claims"), store, smoke=True)
            report = pool.run_suite(get_suite("scaling"), store)   # same workers

    The pool is lazy: processes spawn on the first submission, then stay
    alive until :meth:`shutdown`.  Workers use the platform-default
    multiprocessing context (fork on Linux) so that algorithms and
    generators registered at runtime are visible in the workers;
    multi-threaded hosts like the daemon should call :meth:`start`
    eagerly, before spawning their own threads, to keep the fork clean.
    """

    def __init__(
        self,
        workers: int | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        self.workers = workers if workers is not None else default_jobs()
        self.batch_size = batch_size
        self._context = multiprocessing.get_context()
        self._tasks = self._context.Queue()
        self._results = self._context.Queue()
        self._processes: list = []
        self._worker_counter = 0
        self._sweep_lock = threading.Lock()
        self._job_ids = itertools.count(1)
        self._closed = False
        self._ever_started = False
        # Cumulative traffic counters (exposed by the daemon's status verb).
        self.sweeps_served = 0
        self.cells_executed = 0
        self.batches_executed = 0
        self.registry = registry if registry is not None else MetricsRegistry()
        self._restarts_metric = self.registry.counter(
            "pool_worker_restarts_total",
            "Worker processes respawned after the pool first came up.",
        )
        self._batch_seconds = self.registry.histogram(
            "pool_batch_seconds",
            "Batch dispatch latency: enqueue to results arrival, in seconds.",
        )
        self._cells_metric = self.registry.counter(
            "pool_cells_executed_total",
            "Cells executed by the worker pool (ok and failed).",
        )
        self._sweeps_metric = self.registry.counter(
            "pool_sweeps_total",
            "Sweep submissions fully streamed by the pool.",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._processes)

    def start(self) -> None:
        """Spawn the worker processes (idempotent, self-healing).

        A worker that died while the pool sat idle (OOM, external kill)
        is detected here, before the next sweep: the pool is rebuilt
        wholesale rather than topped up, because a worker that died
        blocked on the shared task queue may have taken the queue's
        internal lock with it.
        """
        if self._closed:
            raise RuntimeError("the pool has been shut down")
        if any(not process.is_alive() for process in self._processes):
            self._rebuild_ipc()
        while len(self._processes) < self.workers:
            self._spawn_worker()
        self._ever_started = True

    def _rebuild_ipc(self) -> None:
        """Terminate every worker and rebuild both queues from scratch."""
        for process in self._processes:
            process.terminate()
        for process in self._processes:
            process.join(timeout=5)
        self._processes.clear()
        self._tasks = self._context.Queue()
        self._results = self._context.Queue()

    def _spawn_worker(self) -> None:
        if self._ever_started:
            # Spawning past the initial bring-up means a worker died and
            # is being replaced — the restart SLO watches exactly this.
            self._restarts_metric.inc()
        self._worker_counter += 1
        process = self._context.Process(
            target=_worker_main,
            args=(self._tasks, self._results),
            name=f"sweep-worker-{self._worker_counter}",
            daemon=True,
        )
        process.start()
        self._processes.append(process)

    def shutdown(self) -> None:
        """Stop the workers (idempotent; pending sentinels drain the loop)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._processes:
            self._tasks.put(None)
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=10)
        self._processes.clear()

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.shutdown()
        return False

    # ------------------------------------------------------------------
    # sweep execution
    # ------------------------------------------------------------------
    def submit_sweep(
        self, suite_name: str, cells: Sequence[Cell], engine: str | None = None
    ) -> Iterator[CellOutcome]:
        """Run ``cells`` on the warm workers, streaming per-cell outcomes.

        Cells are shipped in batches of ``self.batch_size``; outcomes
        arrive grouped by batch, in batch completion order.  The iterator
        must be consumed fully — it holds the pool's sweep lock, and the
        stream *is* the progress signal.  ``engine`` is the sweep-level
        engine override forwarded to every cell.
        """
        cells = list(cells)
        job_id = next(self._job_ids)
        batches = batch_cells(cells, self.batch_size)

        def stream() -> Iterator[CellOutcome]:
            with self._sweep_lock:
                # start() (and its dead-worker rebuild) must run under
                # the sweep lock: healing while another sweep is mid-
                # flight would swap the queues out from under it.
                self.start()
                enqueued_at: dict[int, float] = {}
                for index, batch in enumerate(batches):
                    enqueued_at[index] = time.perf_counter()
                    self._tasks.put((job_id, suite_name, engine, index, batch))
                remaining = len(batches)
                while remaining:
                    try:
                        received_job, batch_index, outcomes = self._results.get(timeout=1.0)
                    except queue_module.Empty:
                        self._check_workers_alive()
                        continue
                    if received_job != job_id:
                        # Left over from an abandoned earlier stream; the
                        # cells completed, their sweep just stopped
                        # listening.  Drop the batch — resume re-runs it.
                        continue
                    remaining -= 1
                    self.batches_executed += 1
                    self._batch_seconds.observe(
                        time.perf_counter() - enqueued_at.pop(batch_index)
                    )
                    for cell, result, error in outcomes:
                        self.cells_executed += 1
                        self._cells_metric.inc()
                        yield CellOutcome(cell=cell, result=result, error=error)
                self.sweeps_served += 1
                self._sweeps_metric.inc()

        return stream()

    def _check_workers_alive(self) -> None:
        """Fail the current sweep if workers died — but heal the pool.

        A killed worker (OOM, external signal) loses its in-flight batch,
        so the sweep cannot complete and raises; the batch's cells were
        never stored, so resume re-runs them.  A worker that dies blocked
        on a shared queue may take the queue's internal lock with it, so
        healing must be wholesale: terminate the survivors, rebuild both
        queues, respawn everyone.  The *next* submission to a long-lived
        pool (the daemon's) then works without a restart.

        Fork-safety of respawning from a threaded host (the daemon's
        runner thread): the replacement children execute only
        ``_worker_main``, which touches nothing but the two queues this
        thread creates immediately before forking — their locks are
        provably unheld at fork time, and no daemon-side lock (jobs
        table, stdio) is ever acquired by worker code, so a lock some
        *other* thread held at fork cannot deadlock the child.
        """
        dead = [p.name for p in self._processes if not p.is_alive()]
        if not dead:
            return
        self._rebuild_ipc()
        if not self._closed:
            self.start()
        raise RuntimeError(
            f"worker process(es) died mid-sweep: {', '.join(dead)}; pool "
            f"rebuilt, the interrupted sweep's unstored cells re-run on resume"
        )

    def run_suite(
        self,
        suite: Suite,
        store: ResultStore,
        smoke: bool = False,
        sizes: tuple[int, ...] | None = None,
        seeds: tuple[int, ...] | None = None,
        shard: ShardSpec | None = None,
        progress: Callable[[CellResult], None] | None = None,
        on_plan: Callable[[int, int], None] | None = None,
        on_failure: Callable[[Cell, str], None] | None = None,
        sinks: Sequence[Callable[[CellResult], None]] = (),
        engine: str | None = None,
    ) -> SweepReport:
        """Run a suite's pending cells through the pool.

        Drop-in equivalent of :meth:`SweepRunner.run` — same store
        append-as-completed semantics, same :class:`SweepReport` — but
        served by the warm workers instead of a fresh executor.

        The hooks let a caller observe the sweep live (the daemon's
        status verb feeds off them): ``on_plan(total_cells, skipped)``
        fires once before the first cell runs, ``progress(result)`` per
        stored cell, ``on_failure(cell, error)`` per failed cell.
        ``sinks`` stream each stored result onward (e.g. to a TCP
        collector) with the runner's fail-soft semantics: a sink failure
        is recorded once in ``SweepReport.sink_error`` and the sink
        disabled, never the sweep aborted.
        """
        start = time.perf_counter()
        planner = SweepRunner(
            suite, store, jobs=1, smoke=smoke, sizes=sizes, seeds=seeds, shard=shard
        )
        pending, skipped = planner.pending_cells()
        if on_plan is not None:
            on_plan(len(pending) + skipped, skipped)
        report = SweepReport(
            suite=suite.name,
            total_cells=len(pending) + skipped,
            skipped=skipped,
            executed=0,
            unverified=0,
        )
        record = make_recorder(store, sinks, report, progress)
        for outcome in self.submit_sweep(suite.name, pending, engine=engine):
            if outcome.error is not None:
                report.failures.append(CellFailure(outcome.cell, outcome.error))
                if on_failure is not None:
                    on_failure(outcome.cell, outcome.error)
                continue
            record(outcome.result)
        report.wall_clock_s = time.perf_counter() - start
        return report

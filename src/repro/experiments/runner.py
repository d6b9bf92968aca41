"""The sweep runner: one loop from pending cells to stored results.

:func:`run_cell` is the cell entry point: it resolves the cell's
generator and algorithm from the registries, builds the instance, runs the
computation under one :class:`~repro.local.CellContext` and returns a
:class:`~repro.experiments.store.CellResult`.  It deliberately takes only
plain data (the suite name and a :class:`~repro.experiments.spec.Cell`) so
the payload shipped to worker processes stays tiny.

:class:`WorkerPool` keeps worker processes alive across sweeps and ships
them one cell per task.

:class:`SweepRunner` filters a suite's cells against the store's completed
fingerprints and runs the remainder: in this process for ``jobs=1`` or a
single pending cell, otherwise on a :class:`WorkerPool` that
:meth:`SweepRunner.run` creates and shuts down.  Each result is appended
to the store the moment it arrives, so a crashed sweep resumes exactly
where it died.
Failed cells (exceptions, or cells lost with a dead worker) are *not*
stored, so the next run retries them.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.experiments.shard import ShardSpec, shard_cells

from repro.local import CellContext, span
from repro.experiments.spec import ALGORITHMS, GENERATORS, Cell, Suite
from repro.experiments.store import CellResult, ResultStore
from repro.obs import MetricsRegistry

__all__ = [
    "run_cell",
    "make_recorder",
    "CellFailure",
    "CellOutcome",
    "SweepReport",
    "SweepRunner",
    "WorkerPool",
    "default_jobs",
]


def default_jobs() -> int:
    """A conservative default worker count: the CPU count, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


def run_cell(suite_name: str, cell: Cell) -> CellResult:
    """Execute one sweep cell and return its structured result.

    Top-level and argument-picklable by design: pool workers receive
    these arguments and call it there.  The cell runs under one
    ``auto`` :class:`~repro.local.CellContext`: every simulator run takes
    the array engine when its algorithm has a kernel and numpy imports,
    the interpreted engine otherwise.

    The context collects every simulator run of the cell: the message
    count lands in ``CellResult.messages``, the engine that served the
    runs in ``CellResult.engine`` (e.g. ``"vectorized[numpy]"``), the
    per-kernel round account in ``CellResult.engine_rounds``, and the
    seconds per phase in ``CellResult.timings`` (nonsemantic).  The
    instance build is the ``generate`` phase, the algorithm callable is
    ``run``, and deeper layers add their own spans (``network`` from
    each ``Network`` build, ``verify`` from the suite run functions,
    ``simulate`` from the engines — all nested inside ``run``'s wall
    clock).  ``gc`` is the seconds of cyclic garbage collection inside the
    context, overlapping the other phases, and 0.0 when none ran.
    """
    generator = GENERATORS[cell.generator]
    algorithm = ALGORITHMS[cell.algorithm]

    start = time.perf_counter()
    with CellContext() as context:
        graph = None
        if generator.build is not None:
            with span("generate"):
                graph = generator.build(cell.n, cell.seed)
        with span("run"):
            fields = algorithm.run(graph, generator, cell.n)
    wall_clock = time.perf_counter() - start
    context.timings.setdefault("gc", 0.0)

    messages = context.messages if context.runs else None
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
        engine=context.engine,
        engine_rounds=context.engine_rounds or None,
        timings=context.timings,
    )


@dataclass
class CellFailure:
    """A cell that raised or died with its worker; kept out of the store
    so it is retried."""

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

    @property
    def ok(self) -> bool:
        return not self.failures and self.unverified == 0


def make_recorder(
    store: ResultStore,
    report: SweepReport,
    progress: Callable[[CellResult], None] | None = None,
) -> Callable[[CellResult], None]:
    """The per-result step of :meth:`SweepRunner.run` and the fleet worker.

    Appends the result to the store, ticks the report's counters, then
    calls the progress hook.  An exception from ``progress`` propagates,
    which is how a failed fleet push aborts.
    """

    def record(result: CellResult) -> None:
        store.append(result)
        report.executed += 1
        if not result.verified:
            report.unverified += 1
        if progress is not None:
            progress(result)

    return record


@dataclass
class CellOutcome:
    """One cell's outcome in a sweep: its result, or the error string."""

    cell: Cell
    result: CellResult | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None


def _worker_main(tasks, results) -> None:
    """Worker loop: run one cell per task until the ``None`` sentinel.

    Lives at module top level so it is picklable under any
    multiprocessing start method, and calls :func:`run_cell` through this
    module's globals, so anything that replaced ``runner.run_cell`` or
    switched numpy off before the fork reaches the workers.  A cell that
    raises is reported as an error string and the worker keeps serving.
    """
    while True:
        task = tasks.get()
        if task is None:
            break
        sweep_id, index, suite_name, cell = task
        try:
            outcome = (run_cell(suite_name, cell), None)
        except Exception as error:  # noqa: BLE001 - reported to the caller
            outcome = (None, repr(error))
        results.put((sweep_id, index, *outcome))


class WorkerPool:
    """Warm worker processes serving sweeps, one cell per task.

    Usage::

        with WorkerPool(workers=4) as pool:
            for outcome in pool.submit_sweep("paper-claims", cells):
                ...
            for outcome in pool.submit_sweep("scaling", more_cells):  # same workers
                ...

    The pool is lazy: processes spawn on the first submission, then stay
    alive until :meth:`shutdown`.  Workers use the platform-default
    multiprocessing context (fork on Linux) so that algorithms and
    generators registered at runtime are visible in the workers;
    multi-threaded hosts like the sweep server should call :meth:`start`
    eagerly, before spawning their own threads, to keep the fork clean.
    """

    def __init__(
        self,
        workers: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.workers = workers if workers is not None else default_jobs()
        self._context = multiprocessing.get_context()
        self._tasks = self._context.Queue()
        self._results = self._context.Queue()
        self._processes: list = []
        self._worker_counter = 0
        self._sweep_lock = threading.Lock()
        self._sweep_ids = itertools.count(1)
        self._closed = False
        self._ever_started = False
        self.registry = registry if registry is not None else MetricsRegistry()
        self._restarts_metric = self.registry.counter(
            "pool_worker_restarts_total",
            "Worker processes respawned after the pool first came up.",
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

        A worker that died (OOM, external kill), whether the pool sat
        idle or a sweep is waiting on it, is handled here: the pool is
        rebuilt wholesale rather than topped up, because a worker that
        died blocked on a shared queue may have taken the queue's
        internal lock with it.
        """
        if self._closed:
            raise RuntimeError("the pool has been shut down")
        if any(not process.is_alive() for process in self._processes):
            for process in self._processes:
                process.terminate()
            for process in self._processes:
                process.join(timeout=5)
            self._processes.clear()
            self._tasks = self._context.Queue()
            self._results = self._context.Queue()
        while len(self._processes) < self.workers:
            self._spawn_worker()
        self._ever_started = True

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
        """Stop the workers and join them (idempotent)."""
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
        self, suite_name: str, cells: Iterable[Cell]
    ) -> Iterator[CellOutcome]:
        """Run ``cells`` on the warm workers, streaming per-cell outcomes.

        Each task is one cell, and at most two cells per worker are in
        flight, so a stream that is abandoned, or a pool that is shut
        down, leaves little queued work behind.  ``cells`` is pulled
        lazily, one cell per task handed out, so a caller may feed it
        while the sweep runs (the sweep server's local worker leases each
        cell as it is pulled).  Outcomes arrive in completion order.  The
        iterator holds the pool's sweep lock until it is exhausted or
        closed.

        A worker that dies mid-sweep (OOM, external kill) takes the cells
        in flight with it: they come back as failed outcomes, the pool is
        rebuilt wholesale (a worker that died on a shared queue may hold
        its lock) and the rest of the sweep runs on the new workers.  The
        lost cells were never stored, so resume re-runs them.

        Fork-safety of respawning from a threaded host (the sweep
        server's local worker thread): the replacement children execute
        only ``_worker_main``, which touches nothing but the two queues
        this thread creates immediately before forking — their locks are
        provably unheld at fork time, and no server-side lock (store
        index, lease table, stdio) is ever acquired by worker code, so a
        lock some *other* thread held at fork cannot deadlock the child.
        """

        def stream() -> Iterator[CellOutcome]:
            with self._sweep_lock:
                # start() (and its dead-worker rebuild) must run under
                # the sweep lock: healing while another sweep is mid-
                # flight would swap the queues out from under it.
                self.start()
                sweep_id = next(self._sweep_ids)
                unsent = iter(enumerate(cells))
                in_flight: dict[int, Cell] = {}

                def send(count: int) -> None:
                    for index, cell in itertools.islice(unsent, count):
                        in_flight[index] = cell
                        self._tasks.put((sweep_id, index, suite_name, cell))

                send(2 * self.workers)
                while in_flight:
                    try:
                        received, index, result, error = self._results.get(timeout=1.0)
                    except queue_module.Empty:
                        dead = [p.name for p in self._processes if not p.is_alive()]
                        if not dead:
                            continue
                        lost = list(in_flight.values())
                        in_flight.clear()
                        self.start()  # rebuilds the pool: a worker is dead
                        send(2 * self.workers)
                        reason = (
                            f"worker process(es) died mid-sweep: {', '.join(dead)}; "
                            f"the cell was lost and re-runs on resume"
                        )
                        for cell in lost:
                            yield CellOutcome(cell=cell, result=None, error=reason)
                        continue
                    if received != sweep_id:
                        # Left over from an abandoned earlier stream; the
                        # cell completed, its sweep just stopped
                        # listening.  Drop it — resume re-runs it.
                        continue
                    send(1)
                    self._cells_metric.inc()
                    yield CellOutcome(cell=in_flight.pop(index), result=result, error=error)
                self._sweeps_metric.inc()

        return stream()


class SweepRunner:
    """Run a suite's pending cells and append results to a store.

    ``jobs`` worker processes run the cells when there is more than one.
    """

    def __init__(
        self,
        suite: Suite,
        store: ResultStore,
        jobs: int = 1,
        smoke: bool = False,
        sizes: tuple[int, ...] | None = None,
        seeds: tuple[int, ...] | None = None,
        shard: ShardSpec | None = None,
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

    def _run_in_process(self, cells: Sequence[Cell]) -> Iterator[CellOutcome]:
        for cell in cells:
            try:
                result = run_cell(self.suite.name, cell)
            except Exception as error:  # noqa: BLE001 - collected, reported
                yield CellOutcome(cell=cell, result=None, error=repr(error))
            else:
                yield CellOutcome(cell=cell, result=result, error=None)

    def run(
        self, progress: Callable[[CellResult], None] | None = None
    ) -> SweepReport:
        """Execute every pending cell; append each result as it arrives.

        ``progress(result)`` is called per stored cell.  A pool this
        method creates is shut down, its workers joined, before it
        returns.
        """
        start = time.perf_counter()
        pending, skipped = self.pending_cells()
        report = SweepReport(
            suite=self.suite.name,
            total_cells=len(pending) + skipped,
            skipped=skipped,
            executed=0,
            unverified=0,
        )
        record = make_recorder(self.store, report, progress)

        pool = None
        if self.jobs > 1 and len(pending) > 1:
            pool = WorkerPool(workers=min(self.jobs, len(pending)))
        try:
            if pool is None:
                outcomes = self._run_in_process(pending)
            else:
                outcomes = pool.submit_sweep(self.suite.name, pending)
            with closing(outcomes):
                for outcome in outcomes:
                    if outcome.ok:
                        record(outcome.result)
                        continue
                    report.failures.append(CellFailure(outcome.cell, outcome.error))
        finally:
            if pool is not None:
                pool.shutdown()

        report.wall_clock_s = time.perf_counter() - start
        return report

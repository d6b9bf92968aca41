"""The sweep daemon: a job queue in front of one persistent worker pool.

``python -m repro.experiments serve`` runs one :class:`SweepDaemon` per
machine.  It listens on a local Unix-domain socket — and, with
``--listen host:port``, on TCP as well — speaking the line-delimited
JSON protocol of :mod:`repro.service.protocol` through its shared
:class:`~repro.service.protocol.LineServer`, and lets any number of
clients feed sweep jobs into one long-lived
:class:`~repro.experiments.runner.WorkerPool` — the process-startup cost
of a sweep is paid once per daemon, not once per request.  TCP requests are
token-authenticated (``--token`` / ``REPRO_SERVICE_TOKEN``); the Unix
socket stays guarded by filesystem permissions.

Verbs
-----
``ping``
    Liveness + pool statistics.
``submit``
    Enqueue a sweep job: ``{"op": "submit", "suite": "paper-claims",
    "smoke": true, "shard": "0/2", "out": "experiments/results",
    "collector": "host:port", "engine": "vectorized"}``.  Validation
    (suite name, shard spec, collector endpoint, engine mode) happens
    here, so a bad request fails fast at the client instead of inside
    the queue.  With a ``collector``, every
    stored record is also streamed to that result collector live.
``status``
    One job's state (``{"op": "status", "job": "job-1"}``) or, without a
    job id, every job plus pool traffic counters.
``results``
    The per-cell result records a job has produced so far.
``report``
    A rendered report bundle (scaling tables + β fits) for a *finished*
    job, built server-side from the job's store — clients get the exact
    bytes ``report --json`` would write, without touching the store.
``metrics``
    The daemon's full Prometheus-text exposition (queue depth, per-verb
    latency, per-phase cell timings, pool traffic) as one string field.
``metrics_history``
    The retained scrape history (a :class:`~repro.obs.ScrapeHistory`
    ring buffer snapshotted every ``scrape_interval_s``), optionally
    restricted by ``window_s`` and capped by ``max_points`` — the input
    to windowed SLO burn checks and dashboard sparklines.
``shutdown``
    Stop accepting work, finish the jobs already queued, exit.

Jobs run strictly in submission order (one at a time — the pool's
workers parallelise *within* a job), each through
:meth:`~repro.experiments.runner.SweepRunner.run` on the warm pool.  Every
completed cell is appended to the job's
:class:`~repro.experiments.store.ResultStore` the moment it finishes, so
daemon jobs are resumable and mergeable exactly like CLI ``run`` sweeps.
A job that loses a worker still ends ``done``: the cells that died with
it are listed under ``failures`` and re-run on resume.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.experiments.report import report_payload
from repro.experiments.runner import SweepRunner, WorkerPool
from repro.experiments.shard import ShardSpec
from repro.experiments.spec import get_suite
from repro.experiments.store import DEFAULT_OUT, ResultStore
from repro.local import check_engine_mode
from repro.obs import MetricsRegistry, ScrapeHistory
from repro.obs.timeseries import (
    DEFAULT_HISTORY_CAPACITY,
    DEFAULT_SCRAPE_INTERVAL_S,
)
from repro.service.client import CollectorSink, ServiceClient, ServiceError
from repro.service.protocol import (
    MAX_SOCKET_PATH_BYTES,
    LineServer,
    check_unix_socket_path,
    error_response,
    metrics_history_response,
    ok_response,
    parse_endpoint,
    resolve_token,
    unix_socket_is_live,
)

__all__ = ["DEFAULT_SOCKET", "MAX_SOCKET_PATH_BYTES", "Job", "SweepDaemon"]

#: Default rendezvous point, next to the default result store.
DEFAULT_SOCKET = "experiments/service.sock"

#: Per-job cap on cell records kept in memory for the ``results`` verb.
#: The on-disk ResultStore is the durable record; the in-memory copy is a
#: convenience for small jobs, and capping it keeps a long-lived daemon's
#: memory (and the single-line ``results`` response) bounded.
MAX_RESULT_RECORDS_IN_MEMORY = 10_000

#: Finished jobs retained in the job table.  Older done/failed jobs are
#: evicted as new ones are submitted, so heavy traffic cannot grow the
#: daemon without bound.
MAX_FINISHED_JOBS = 50


def _int_tuple_field(name: str, value: Any) -> tuple[int, ...] | None:
    """Coerce a submit list field (``sizes``/``seeds``) to an int tuple.

    Raises :class:`ValueError` naming the field and the offending value,
    so the submit handler answers a validation ``error_response`` like
    every other parameter instead of letting a bare ``int(...)`` crash
    escape as an opaque handler exception.  Empty/absent means "use the
    suite's own sweep" (``None``); booleans are rejected — ``True`` is
    an ``int`` to Python but never a sweep size anyone meant.
    """
    if value is None or value == []:
        return None
    if not isinstance(value, (list, tuple)):
        raise ValueError(
            f"submit: {name!r} must be a list of integers, got {value!r}"
        )
    items = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float, str)):
            raise ValueError(
                f"submit: {name!r} must be a list of integers, "
                f"got {item!r} in {value!r}"
            )
        try:
            items.append(int(item))
        except (TypeError, ValueError):
            raise ValueError(
                f"submit: {name!r} must be a list of integers, "
                f"got {item!r} in {value!r}"
            ) from None
    return tuple(items)


@dataclass
class Job:
    """One queued/running/finished sweep request."""

    id: str
    suite: str
    smoke: bool = False
    sizes: tuple[int, ...] | None = None
    seeds: tuple[int, ...] | None = None
    shard: str | None = None
    out: str = DEFAULT_OUT
    collector: str | None = None
    engine: str | None = None
    state: str = "queued"  # queued | running | done | failed
    submitted_s: float = field(default_factory=time.time)
    started_s: float | None = None
    finished_s: float | None = None
    total_cells: int = 0
    skipped: int = 0
    executed: int = 0
    unverified: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)
    error: str | None = None
    sink_error: str | None = None
    results: list[dict[str, Any]] = field(default_factory=list)
    results_truncated: bool = False

    def describe(self) -> dict[str, Any]:
        """The status-verb view of the job (everything but the records).

        Mutable fields are copied: connection threads serialise this
        dict while the runner thread appends to ``failures``, so handing
        out the live list would let ``json.dumps`` race a mutation.
        Callers hold ``_jobs_lock`` so the copy is a consistent snapshot.
        """
        return {
            "id": self.id,
            "suite": self.suite,
            "smoke": self.smoke,
            "sizes": list(self.sizes) if self.sizes else None,
            "seeds": list(self.seeds) if self.seeds else None,
            "shard": self.shard,
            "out": self.out,
            "collector": self.collector,
            "engine": self.engine,
            "state": self.state,
            "total_cells": self.total_cells,
            "skipped": self.skipped,
            "executed": self.executed,
            "unverified": self.unverified,
            "failures": list(self.failures),
            "error": self.error,
            "sink_error": self.sink_error,
        }


class SweepDaemon:
    """Serve sweep jobs over local and/or TCP sockets from one warm pool."""

    def __init__(
        self,
        socket_path: str | Path = DEFAULT_SOCKET,
        workers: int | None = None,
        listen: str | None = None,
        token: str | None = None,
        scrape_interval_s: float = DEFAULT_SCRAPE_INTERVAL_S,
        history_capacity: int = DEFAULT_HISTORY_CAPACITY,
        history_spill: str | Path | None = None,
    ) -> None:
        self.socket_path = Path(socket_path)
        self.listen = listen
        self.token = resolve_token(token)
        self.registry = MetricsRegistry()
        self.history = ScrapeHistory(
            self.registry,
            interval_s=scrape_interval_s,
            capacity=history_capacity,
            spill_path=history_spill,
        )
        self.pool = WorkerPool(workers=workers, registry=self.registry)
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._job_queue: queue_module.Queue[str] = queue_module.Queue()
        self._job_counter = 0
        self._shutdown = threading.Event()
        self._server: LineServer | None = None
        self._runner_thread: threading.Thread | None = None
        self._started_monotonic: float | None = None
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Daemon-level gauges/counters in the shared registry.

        Queue depth, uptime and per-state job counts are *function*
        gauges — read live at scrape time, never maintained by hand.
        Cell phase timings observed here come off
        ``CellResult.timings``: worker processes have their own address
        space, so their spans travel back inside the result record and
        land in this (scrapable) registry at the progress callback.
        """
        self.registry.gauge(
            "daemon_queue_depth", "Jobs waiting in the submission queue."
        ).set_function(self._job_queue.qsize)
        self.registry.gauge(
            "daemon_uptime_seconds", "Seconds since the daemon started."
        ).set_function(self._uptime_s)
        jobs_gauge = self.registry.gauge(
            "daemon_jobs", "Jobs in the table, by state.", ("state",)
        )
        for state in ("queued", "running", "done", "failed"):
            jobs_gauge.labels(state=state).set_function(
                lambda state=state: sum(
                    1 for job in list(self._jobs.values()) if job.state == state
                )
            )
        self._cells_completed = self.registry.counter(
            "daemon_cells_completed_total",
            "Cells stored by daemon jobs (verified or not).",
        )
        self._job_seconds = self.registry.histogram(
            "daemon_job_seconds",
            "Wall-clock seconds per finished job.",
            buckets=(0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0),
        )
        self._cell_phase_seconds = self.registry.histogram(
            "daemon_cell_phase_seconds",
            "Per-cell phase durations (generate/run/verify/simulate).",
            ("phase",),
        )
        self._engine_rounds = self.registry.counter(
            "engine_rounds_total",
            "Rounds simulated per engine, kernel and array backend "
            "(interpreted fallbacks show up as engine=interpreted).",
            ("engine", "kernel", "backend"),
        )

    def _uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def _cells_per_s(self) -> float:
        uptime = self._uptime_s()
        return self.pool.cells_executed / uptime if uptime > 0 else 0.0

    @property
    def tcp_address(self) -> tuple[str, int] | None:
        """The bound ``(host, port)`` of the TCP listener, if any."""
        return self._server.tcp_address if self._server is not None else None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the listener(s) and start the accept and job-runner threads."""
        if self._server is not None:
            raise RuntimeError("daemon already started")
        # Fail fast on every endpoint problem *before* acquiring any
        # resource: the pool must never fork for a daemon that cannot
        # come up (over-long socket path, TCP without a token, busy
        # address).  listen_unix repeats these checks, but binding can
        # only happen *after* the fork — a listener bound first would be
        # inherited by every worker and keep the socket alive past the
        # daemon's death — so the pre-checks here are what keeps a
        # doomed start from forking at all.
        check_unix_socket_path(self.socket_path)
        tcp_endpoint = None
        if self.listen is not None:
            tcp_endpoint = parse_endpoint(self.listen)
            if not tcp_endpoint.is_tcp:
                raise ServiceError(
                    f"--listen takes a host:port TCP address, got {self.listen!r}"
                )
            if not self.token:
                raise ServiceError(
                    "refusing to listen on TCP without an auth token — pass "
                    "--token or set REPRO_SERVICE_TOKEN"
                )
        if self.socket_path.exists() and unix_socket_is_live(self.socket_path):
            raise RuntimeError(f"another daemon is serving {self.socket_path}")
        # Fork the worker processes *now*, while this is still the only
        # thread: forking lazily from the runner thread with accept /
        # connection threads live risks a child inheriting a lock some
        # other thread held at fork time.
        self.pool.start()
        server = LineServer(
            self._dispatch,
            token=self.token,
            name="sweep-daemon",
            close_after=lambda request, _: request.get("op") == "shutdown",
            registry=self.registry,
            verbs=("ping", "submit", "status", "results", "report",
                   "metrics", "metrics_history", "shutdown"),
        )
        try:
            server.listen_unix(self.socket_path)
            if tcp_endpoint is not None:
                server.listen_tcp(tcp_endpoint.host, tcp_endpoint.port)
            server.start()
        except BaseException:
            server.close()
            self.pool.shutdown()
            raise
        self._server = server
        self._started_monotonic = time.monotonic()
        if self.history.interval_s > 0:
            self.history.start()
        self._runner_thread = threading.Thread(
            target=self._runner_loop, name="sweep-daemon-runner", daemon=True
        )
        self._runner_thread.start()

    def serve_forever(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`stop`) arrives."""
        if self._server is None:
            self.start()
        try:
            while not self._shutdown.is_set():
                self._shutdown.wait(0.2)
        finally:
            self.close()

    def stop(self) -> None:
        """Request shutdown: queued jobs still finish, then threads exit.

        Taking the jobs lock makes stopping atomic with respect to
        ``submit``: a submit that passed its shutdown check under the
        lock has already enqueued its job before the flag can be set, so
        the runner loop (which exits only once the flag is set *and* the
        queue is drained) never strands an accepted job.
        """
        with self._jobs_lock:
            self._shutdown.set()

    def close(self) -> None:
        """Stop, drain the queued jobs, and release every resource.

        The runner thread is joined *before* the accept loops are
        stopped: clients keep polling ``status`` / ``results`` while the
        queued jobs drain (only new ``submit`` requests are rejected once
        the shutdown flag is up).
        """
        self.stop()
        if self._runner_thread is not None:
            # No timeout: the shutdown contract is "queued jobs still
            # finish", however long they take.  A wedged sweep cannot
            # hang this forever — the pool detects dead workers within
            # ~1s and fails their cells rather than blocking.
            self._runner_thread.join()
            self._runner_thread = None
        self.history.stop()
        if self._server is not None:
            # The server unlinks only a socket *it* bound: a close()
            # after a failed start ("another daemon is serving") has no
            # server and must not sever the live daemon owning the file.
            self._server.close()
            self._server = None
        self.pool.shutdown()

    def __enter__(self) -> "SweepDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # job execution (runner thread)
    # ------------------------------------------------------------------
    def _runner_loop(self) -> None:
        while not (self._shutdown.is_set() and self._job_queue.empty()):
            try:
                job_id = self._job_queue.get(timeout=0.2)
            except queue_module.Empty:
                continue
            self._run_job(self._jobs[job_id])

    def _run_job(self, job: Job) -> None:
        """Execute one job, updating its fields *live* for the status verb.

        The plan (total cells, resume skips) is published before the first
        cell runs, and executed/unverified/failure counters tick per cell,
        so a polling client always sees a meaningful denominator — even if
        the sweep later dies and the job ends up ``failed``.
        """
        job.state = "running"
        job.started_s = time.time()
        job_start = time.perf_counter()

        def on_plan(total: int, skipped: int) -> None:
            job.total_cells = total
            job.skipped = skipped

        def progress(result) -> None:
            job.executed += 1
            self._cells_completed.inc()
            for phase, seconds in (result.timings or {}).items():
                self._cell_phase_seconds.labels(phase=phase).observe(seconds)
            for dispatch, rounds in (result.engine_rounds or {}).items():
                engine_kind, _, rest = dispatch.partition("/")
                kernel, _, backend = rest.partition("/")
                self._engine_rounds.labels(
                    engine=engine_kind, kernel=kernel or "unknown",
                    backend=backend or "-",
                ).inc(rounds)
            if not result.verified:
                job.unverified += 1
            with self._jobs_lock:
                if len(job.results) < MAX_RESULT_RECORDS_IN_MEMORY:
                    job.results.append(result.to_record())
                else:
                    job.results_truncated = True

        def on_failure(cell, error: str) -> None:
            # Under the jobs lock: status/results handlers snapshot the
            # job's mutable lists under the same lock.
            with self._jobs_lock:
                job.failures.append({
                    "scenario": cell.scenario,
                    "n": cell.n,
                    "seed": cell.seed,
                    "error": error,
                })

        sink = None
        try:
            suite = get_suite(job.suite)
            shard = ShardSpec.parse(job.shard) if job.shard else None
            sinks: tuple = ()
            if job.collector:
                sink = CollectorSink(ServiceClient(job.collector, token=self.token))
                sinks = (sink,)
            report = SweepRunner(
                suite,
                ResultStore(job.out),
                smoke=job.smoke,
                sizes=job.sizes,
                seeds=job.seeds,
                shard=shard,
                sinks=sinks,
                engine=job.engine,
                pool=self.pool,
            ).run(progress=progress, on_plan=on_plan, on_failure=on_failure)
            job.sink_error = report.sink_error
        except Exception as error:  # noqa: BLE001 - surfaced via status verb
            job.state = "failed"
            job.error = repr(error)
        else:
            job.state = "done"
        finally:
            if sink is not None:
                sink.close()
            job.finished_s = time.time()
            self._job_seconds.observe(time.perf_counter() - job_start)

    # ------------------------------------------------------------------
    # protocol handling (dispatched from LineServer connection threads)
    # ------------------------------------------------------------------
    def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return ok_response(pool=self._pool_stats(), jobs=len(self._jobs))
        if op == "submit":
            return self._handle_submit(request)
        if op == "status":
            return self._handle_status(request)
        if op == "results":
            return self._handle_results(request)
        if op == "report":
            return self._handle_report(request)
        if op == "metrics":
            return ok_response(metrics=self.registry.render())
        if op == "metrics_history":
            return metrics_history_response(self.history, request)
        if op == "shutdown":
            self.stop()
            return ok_response(stopping=True)
        return error_response(
            f"unknown op {op!r} (expected ping/submit/status/results/"
            f"report/metrics/metrics_history/shutdown)"
        )

    def _pool_stats(self) -> dict[str, Any]:
        return {
            "workers": self.pool.workers,
            "started": self.pool.started,
            "sweeps_served": self.pool.sweeps_served,
            "cells_executed": self.pool.cells_executed,
        }

    def _handle_submit(self, request: dict[str, Any]) -> dict[str, Any]:
        if self._shutdown.is_set():
            return error_response("daemon is shutting down; job rejected")
        suite_name = request.get("suite")
        if not suite_name:
            return error_response("submit requires a 'suite' field")
        try:
            get_suite(suite_name)
        except KeyError as error:
            return error_response(error.args[0])
        shard = request.get("shard")
        if shard is not None:
            try:
                ShardSpec.parse(str(shard))
            except ValueError as error:
                return error_response(str(error))
        collector = request.get("collector")
        if collector is not None:
            try:
                parse_endpoint(str(collector))
            except ValueError as error:
                return error_response(str(error))
        engine = request.get("engine")
        if engine is not None:
            try:
                check_engine_mode(engine)
            except ValueError as error:
                return error_response(str(error))
        # Validate before taking the lock: a malformed value must answer
        # a named validation error, never raise inside the handler.
        try:
            sizes = _int_tuple_field("sizes", request.get("sizes"))
            seeds = _int_tuple_field("seeds", request.get("seeds"))
        except ValueError as error:
            return error_response(str(error))
        with self._jobs_lock:
            # Re-check under the lock: stop() also takes it, so a job
            # accepted here is enqueued before the flag can flip and the
            # runner loop is guaranteed to drain it.
            if self._shutdown.is_set():
                return error_response("daemon is shutting down; job rejected")
            self._evict_finished_jobs()
            self._job_counter += 1
            job = Job(
                id=f"job-{self._job_counter}",
                suite=suite_name,
                smoke=bool(request.get("smoke", False)),
                sizes=sizes,
                seeds=seeds,
                shard=str(shard) if shard is not None else None,
                out=str(request.get("out") or DEFAULT_OUT),
                collector=str(collector) if collector is not None else None,
                engine=str(engine) if engine is not None else None,
            )
            self._jobs[job.id] = job
            self._job_queue.put(job.id)
        return ok_response(job=job.id, queued=self._job_queue.qsize())

    def _evict_finished_jobs(self) -> None:
        """Drop the oldest done/failed jobs beyond :data:`MAX_FINISHED_JOBS`.

        Called with the jobs lock held.  The on-disk stores are untouched
        — only the in-memory job table (and its cached result records)
        is bounded.
        """
        finished = [
            job_id
            for job_id, job in self._jobs.items()
            if job.state in ("done", "failed")
        ]
        for job_id in finished[: max(0, len(finished) - MAX_FINISHED_JOBS)]:
            del self._jobs[job_id]

    def _get_job(self, request: dict[str, Any]) -> Job | None:
        return self._jobs.get(str(request.get("job")))

    def _handle_status(self, request: dict[str, Any]) -> dict[str, Any]:
        if "job" in request:
            # Same lock as the all-jobs path: describe() snapshots
            # mutable fields, and the snapshot is only consistent if the
            # runner thread cannot mutate the job mid-copy.
            with self._jobs_lock:
                job = self._get_job(request)
                if job is None:
                    return error_response(f"unknown job {request.get('job')!r}")
                return ok_response(job=job.describe())
        with self._jobs_lock:
            jobs = [job.describe() for job in self._jobs.values()]
        return ok_response(
            jobs=jobs,
            pool=self._pool_stats(),
            uptime_s=self._uptime_s(),
            queue_depth=self._job_queue.qsize(),
            cells_per_s=self._cells_per_s(),
        )

    def _handle_results(self, request: dict[str, Any]) -> dict[str, Any]:
        with self._jobs_lock:
            job = self._get_job(request)
            if job is None:
                return error_response(f"unknown job {request.get('job')!r}")
            return ok_response(
                job=job.id,
                state=job.state,
                records=list(job.results),
                truncated=job.results_truncated,
                store=str(ResultStore(job.out).path),
            )

    def _handle_report(self, request: dict[str, Any]) -> dict[str, Any]:
        """Build the report bundle for a finished job, server-side.

        The bundle is built from the job's on-disk store — the same bytes
        ``report --out <job.out> --json`` would produce — so clients on
        other machines never need the store file itself.
        """
        if "job" not in request:
            return error_response(
                "report requires a 'job' field naming a finished job"
            )
        job = self._get_job(request)
        if job is None:
            return error_response(f"unknown job {request.get('job')!r}")
        if job.state not in ("done", "failed"):
            return error_response(
                f"{job.id} is still {job.state}; report needs a finished job"
            )
        records = ResultStore(job.out).records()
        if not records:
            return error_response(f"{job.id} stored no results to report on")
        return ok_response(job=job.id, state=job.state, **report_payload(records))

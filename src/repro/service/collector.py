"""The sweep server: one deduplicated store, the lease table and local
workers.

``python -m repro.experiments serve`` runs one :class:`ResultCollector`:
a :class:`~repro.service.protocol.LineServer` on a Unix socket and, with
``--listen host:port``, on token-authenticated TCP, in front of one
fingerprint-deduplicated :class:`~repro.experiments.store.ResultStore`
(``--out``).  Every record reaches that store through
:meth:`ResultCollector.ingest`, whichever way it was computed:

* **submitted**: ``submit`` queues a suite's cells that are not yet
  verified in the store, and the server's local worker — a warm
  :class:`~repro.experiments.runner.WorkerPool` of ``--workers N``
  processes — leases and runs them;
* **fleet**: ``run <suite> --fleet host:port`` workers on any machine
  lease cells from the same :class:`~repro.service.leases.LeaseTable`
  and ``push`` each result back.

Both run the one :class:`~repro.service.leases.LeaseLoop`: the local
worker asks this server's own verb table, in-process, for the pending
submitted cells, one each time its pool pulls one, and ingests each
result.  It is one more lease holder, so a fleet worker that offers a
submitted suite shares its cells, and a record for a pending cell from
*any* stream retires it.  ``serve --workers 0`` runs no local worker and
refuses ``submit``: it is the fleet's collector alone.  The store is a
perfectly ordinary store: ``report --out`` reads it unchanged, and the
``report`` verb serves the same bytes over the wire.

Deduplication applies :func:`repro.experiments.store.resolve_duplicate`
— the *same* policy as file-based merging, under one lock, so the
verified-outranks-unverified rule holds regardless of the order in which
concurrent streams deliver a fingerprint:

* first record for a fingerprint: accepted and appended;
* a verified record never displaced by an unverified one: dropped;
* otherwise the newcomer wins and is appended (the store's readers
  resolve duplicates last-write-wins, so the append order *is* the
  resolution order);
* equal-rank records with differing semantic payloads are appended but
  counted as conflicts — diverging code or environments produced them.

Verbs
-----
``submit``
    ``{"op": "submit", "suite": "paper-claims", "smoke": true,
    "sizes": [...], "seeds": [...]}`` → ``total_cells``,
    ``skipped`` (already verified in the store) and ``fingerprints`` (the
    cells queued for the local worker).  Every field is validated here,
    so a bad request fails fast at the client: ``suite`` takes a
    non-empty string, ``smoke`` a JSON boolean (absent means false), and
    ``sizes`` and ``seeds`` integral numbers or numeric strings only.
    Unknown fields are ignored; each cell runs on the engine
    :func:`~repro.local.select_engine` picks for it.
``status``
    Cumulative ingest counters, the pending-cell and local-worker
    counts, the store path, uptime and the records/sec ingest rate;
    with ``fingerprints`` (a submit reply's list), progress over those
    cells: ``completed``, ``unverified``, ``failures``, ``pending`` and
    ``done``.
``push``
    ``{"op": "push", "records": [<cell record>, ...]}`` → per-batch
    ``accepted`` / ``dropped`` / ``conflicts`` counts.
``report``
    The rendered report bundle over the whole store — the same bytes
    ``report --json`` would write from it.
``metrics``
    The server's full Prometheus-text exposition (ingest counters by
    fate, per-phase cell timings, simulator rounds per engine, pool
    traffic, lease fates, per-verb latency).  Counters are cumulative
    since the server started; two saved scrapes compared with
    ``dashboard --diff`` show what changed between them.
``register`` / ``heartbeat`` / ``lease``
    The elastic-fleet control plane (:mod:`repro.service.leases`):
    workers register, lease one pending cell per request under
    heartbeat-renewed leases, and stream results back through ``push``
    — which doubles as lease completion.  A worker that stops
    heartbeating has its leases expired and handed to whoever asks
    next; the ``metrics`` scrape counts workers alive and lost
    (``fleet_workers``) and lease events by fate
    (``fleet_leases_total``).
``shutdown``
    Refuse new submits, let the local worker finish the submitted
    cells, then stop serving.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any

from repro.experiments.report import report_payload
from repro.experiments.runner import CellOutcome, WorkerPool
from repro.experiments.spec import Cell, get_suite
from repro.experiments.store import (
    DEFAULT_OUT,
    CellResult,
    ResultStore,
    resolve_duplicate,
)
from repro.obs import MetricsRegistry
from repro.service.leases import (
    DEFAULT_HEARTBEAT_INTERVAL_S,
    LeaseLoop,
    LeaseTable,
)
from repro.service.protocol import (
    LineServer,
    ServiceError,
    check_unix_socket_path,
    error_response,
    ok_response,
    parse_endpoint,
    resolve_token,
    unix_socket_is_live,
)

__all__ = ["DEFAULT_SOCKET", "ResultCollector"]

#: Default rendezvous point, next to the default result store.
DEFAULT_SOCKET = "experiments/service.sock"


def _int_tuple_field(name: str, value: Any) -> tuple[int, ...] | None:
    """Coerce a submit list field (``sizes``/``seeds``) to an int tuple.

    Raises :class:`ValueError` naming the field and the offending value,
    so the submit handler answers a validation ``error_response`` like
    every other parameter instead of letting a bare ``int(...)`` crash
    escape as an opaque handler exception.  Empty/absent means "use the
    suite's own sweep" (``None``).  Only integral values pass: ``128.0``
    and ``"96"`` coerce, while ``2.5`` is refused rather than truncated,
    and so are ``Infinity`` and ``NaN``, which the server's JSON decoder
    accepts.  Booleans are refused too — ``True`` is an ``int`` to
    Python but never a sweep size anyone meant.
    """
    if value is None or value == []:
        return None
    if not isinstance(value, (list, tuple)):
        raise ValueError(
            f"submit: {name!r} must be a list of integers, got {value!r}"
        )
    items = []
    for item in value:
        coerced = item
        if isinstance(item, float) and item.is_integer():
            coerced = int(item)
        elif isinstance(item, str):
            try:
                coerced = int(item)
            except ValueError:
                pass
        if isinstance(coerced, bool) or not isinstance(coerced, int):
            raise ValueError(
                f"submit: {name!r} must be a list of integers, "
                f"got {item!r} in {value!r}"
            )
        items.append(coerced)
    return tuple(items)


class ResultCollector:
    """The sweep server: one deduplicated store, leases, local workers."""

    def __init__(
        self,
        out: str | Path = DEFAULT_OUT,
        listen: str | None = None,
        socket_path: str | Path | None = None,
        token: str | None = None,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        workers: int = 0,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be at least 0, got {workers}")
        self.store = ResultStore(out)
        self.listen = listen
        self.socket_path = Path(socket_path) if socket_path is not None else None
        self.token = resolve_token(token)
        self._latest: dict[str, dict[str, Any]] = {}
        self._lock = threading.Lock()
        # Wakes the local worker when cells are submitted or shutdown is
        # requested.
        self._work = threading.Condition(self._lock)
        #: Submitted cells not yet retired: fingerprint → (suite, cell).
        self._pending: dict[str, tuple[str, Cell]] = {}
        #: Submitted cells whose local run failed, by fingerprint.
        self._failures: dict[str, dict[str, Any]] = {}
        self._shutdown = threading.Event()
        self._server: LineServer | None = None
        # Cumulative ingest counters (served by status).
        self.accepted = 0
        self.dropped = 0
        self.duplicates = 0
        self.conflicts = 0
        #: Store records skipped at startup for lacking a fingerprint —
        #: surfaced by status/metrics instead of refusing to serve.
        self.malformed_store_records = 0
        #: Records the startup replay read from the store, malformed ones
        #: included: what was on disk before this process appended any.
        self.store_records_at_start = 0
        self.leases = LeaseTable(
            heartbeat_interval_s=heartbeat_interval_s,
            on_event=self._on_lease_event,
        )
        self._started_monotonic: float | None = None
        self._last_push_monotonic: float | None = None
        self.registry = MetricsRegistry()
        #: The local worker's warm pool; ``None`` with ``workers=0``.
        self.pool = (
            WorkerPool(workers=workers, registry=self.registry) if workers else None
        )
        self._worker: LeaseLoop | None = None
        self._worker_thread: threading.Thread | None = None
        self._register_metrics()

    def _register_metrics(self) -> None:
        # collector_records_ingested_total counts this process's store
        # *appends* only — CI pins it plus collector_store_records_at_start
        # equal to the store's record count, so a dropped record must not
        # tick it.
        self._ingested_metric = self.registry.counter(
            "collector_records_ingested_total",
            "Records appended to the collector's store.",
        )
        self._fate_metric = self.registry.counter(
            "collector_records_total",
            "Pushed records by duplicate-policy fate.",
            ("fate",),
        )
        self._push_batch_records = self.registry.histogram(
            "collector_push_batch_records",
            "Records per push batch.",
            buckets=(1, 2, 5, 10, 25, 50, 100, 500),
        )
        self.registry.gauge(
            "collector_uptime_seconds", "Seconds since the collector started."
        ).set_function(self._uptime_s)
        self.registry.gauge(
            "collector_seconds_since_last_push",
            "Per-stream lag: seconds since the last push batch arrived "
            "(0 before the first push).",
        ).set_function(self._seconds_since_last_push)
        self.registry.gauge(
            "collector_store_records_at_start",
            "Store records the startup replay read, before this process "
            "appended any.",
        ).set_function(lambda: float(self.store_records_at_start))
        self.registry.gauge(
            "collector_store_malformed_records",
            "Store records skipped at startup for lacking a fingerprint.",
        ).set_function(lambda: float(self.malformed_store_records))
        self.registry.gauge(
            "collector_pending_cells",
            "Submitted cells not yet stored or failed.",
        ).set_function(lambda: float(len(self._pending)))
        # Cell phase timings and simulator rounds come off the records
        # themselves: cells run in other processes (pool workers, fleet
        # machines), so their accounts travel inside the record and land
        # here at ingest, for submitted and fleet-pushed cells alike.
        self._cell_phase_seconds = self.registry.histogram(
            "cell_phase_seconds",
            "Per-cell phase durations (generate/run/network/verify/simulate) of "
            "stored records.",
            ("phase",),
        )
        self._engine_rounds = self.registry.counter(
            "engine_rounds_total",
            "Rounds simulated per engine, kernel and array backend "
            "(interpreted fallbacks show up as engine=interpreted).",
            ("engine", "kernel", "backend"),
        )
        # Fleet scheduling: lease lifecycle counters fed by the lease
        # table's event callback, liveness gauges read straight off it.
        self._lease_fates = self.registry.counter(
            "fleet_leases_total",
            "Lease lifecycle events by fate (granted/renewed/expired/"
            "released/reassigned/completed).",
            ("fate",),
        )
        self._lease_age = self.registry.histogram(
            "fleet_lease_age_seconds",
            "Lease age when it completed, expired or was released.",
            buckets=(0.5, 1.0, 2.0, 5.0, 15.0, 60.0, 300.0, 1800.0),
        )
        workers_gauge = self.registry.gauge(
            "fleet_workers",
            "Registered fleet workers, by liveness state.",
            ("state",),
        )
        for state in ("alive", "lost"):
            workers_gauge.labels(state=state).set_function(
                lambda state=state: float(
                    self.leases.worker_counts().get(state, 0)
                )
            )
        self.registry.gauge(
            "fleet_oldest_lease_age_seconds",
            "Age of the oldest active lease (0 when none are held).",
        ).set_function(self.leases.oldest_lease_age_s)
        self.registry.gauge(
            "fleet_lease_ttl_seconds",
            "The TTL a lease must be renewed within (the lease-stuck "
            "SLO's budget unit).",
        ).set_function(lambda: self.leases.lease_ttl_s)

    def _on_lease_event(self, fate: str, age_s: float | None) -> None:
        self._lease_fates.labels(fate=fate).inc()
        if age_s is not None:
            self._lease_age.observe(age_s)

    def _uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def _seconds_since_last_push(self) -> float:
        if self._last_push_monotonic is None:
            return 0.0
        return time.monotonic() - self._last_push_monotonic

    def _records_per_s(self) -> float:
        uptime = self._uptime_s()
        return self.accepted / uptime if uptime > 0 else 0.0

    @property
    def tcp_address(self) -> tuple[str, int] | None:
        """The bound ``(host, port)`` of the TCP listener, if any."""
        return self._server.tcp_address if self._server is not None else None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Check the endpoints, load the store, fork the pool, then bind.

        Every endpoint problem (over-long socket path, a live server on
        the socket, TCP without a token) is refused before any resource
        is acquired: the pool must never fork for a server that cannot
        come up.  Binding happens only *after* the fork — a listener
        bound first would be inherited by every worker and keep the
        socket alive past the server's death — and the fork happens
        before this server starts any thread, so no child inherits a
        lock some other thread held.

        A restarted server picks up exactly where it stopped: the
        store's records are replayed through the same duplicate policy,
        so a verified record that survived the previous run still blocks
        unverified latecomers.
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        if self.listen is None and self.socket_path is None:
            raise ServiceError(
                "a server needs an endpoint: --listen host:port and/or "
                "--socket path"
            )
        tcp_endpoint = None
        if self.socket_path is not None:
            check_unix_socket_path(self.socket_path)
            if self.socket_path.exists() and unix_socket_is_live(self.socket_path):
                raise RuntimeError(f"another server is serving {self.socket_path}")
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
        records = self.store.records()
        self.store_records_at_start = len(records)
        for record in records:
            fingerprint = record.get("fingerprint")
            if not isinstance(fingerprint, str) or not fingerprint:
                # One corrupt line must not brick a restart (and with it
                # collector-aware resume): skip it, count it, surface the
                # count via status and the malformed-records gauge.  The
                # line stays in the JSONL file untouched for forensics.
                self.malformed_store_records += 1
                continue
            previous = self._latest.get(fingerprint)
            if previous is None or resolve_duplicate(previous, record).keep_newcomer:
                self._latest[fingerprint] = record
        # Seed the fleet scheduler with what is already done: verified
        # records only, mirroring the store's completed_fingerprints()
        # resume policy, so an unverified record is re-leased and re-run.
        self.leases.seed_completed(
            fingerprint
            for fingerprint, record in self._latest.items()
            if record.get("verified")
        )
        if self.pool is not None:
            self.pool.start()
        server = LineServer(
            self._dispatch,
            token=self.token,
            name="result-collector",
            close_after=lambda request, _: request.get("op") == "shutdown",
            registry=self.registry,
            verbs=("submit", "status", "push", "report", "metrics",
                   "register", "heartbeat", "lease", "shutdown"),
        )
        try:
            if self.socket_path is not None:
                server.listen_unix(self.socket_path)
            if tcp_endpoint is not None:
                server.listen_tcp(tcp_endpoint.host, tcp_endpoint.port)
            server.start()
        except BaseException:
            server.close()
            if self.pool is not None:
                self.pool.shutdown()
            raise
        self._server = server
        self._started_monotonic = time.monotonic()
        if self.pool is not None:
            # The local worker: the fleet's lease loop, asking this
            # server's verb table in-process for submitted cells.
            self._worker = LeaseLoop(
                self._dispatch, self.pool, "local",
                offer=lambda: self._pending, sink=self._settle, lock=self._lock,
            )
            self._worker.start()
            self._worker_thread = threading.Thread(
                target=self._run_submitted, name="local-worker", daemon=True
            )
            self._worker_thread.start()

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
        """Request shutdown: new submits are refused, submitted cells still run.

        Setting the flag under the lock makes stopping atomic with
        respect to ``submit``: a submit that passed its shutdown check
        has queued its cells before the flag can be set, so the local
        worker (which exits only once the flag is set *and* nothing is
        pending) never strands an accepted cell.
        """
        with self._work:
            self._shutdown.set()
            self._work.notify_all()

    def close(self) -> None:
        """Stop, let the local worker drain, and release every resource.

        The local worker is joined *before* the listeners close: clients
        keep polling ``status`` while the submitted cells drain.
        """
        self.stop()
        if self._worker_thread is not None:
            # No timeout: the shutdown contract is "submitted cells still
            # run", however long they take.  A dead pool worker cannot
            # hang this — the pool fails its cells within ~1 s.
            self._worker_thread.join()
            self._worker_thread = None
        if self._worker is not None:
            self._worker.stop()
        if self._server is not None:
            # The server unlinks only a socket *it* bound: a close()
            # after a failed start ("another server is serving") has no
            # server and must not sever the live one owning the file.
            self._server.close()
            self._server = None
        if self.pool is not None:
            self.pool.shutdown()

    def __enter__(self) -> "ResultCollector":
        self.start()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest(self, record: dict[str, Any]) -> str:
        """Apply the duplicate policy to one record; append if it wins.

        Returns the record's fate: ``"accepted"`` (new fingerprint or a
        winning newcomer), ``"dropped"`` (an unverified record losing to
        a stored verified one) or ``"conflict"`` (accepted, but an
        equal-rank record with a different semantic payload was already
        present).  The decision and the append happen under one lock, so
        two streams racing the same fingerprint serialise and the policy
        — not arrival timing — picks the survivor.  The append comes
        first: a record the store refused (an unwritable ``--out``)
        raises here and leaves the index, the counters and the lease
        table as they were.
        """
        fingerprint = record.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise ValueError("pushed record lacks a fingerprint field")
        result = CellResult.from_record(record)
        with self._work:
            previous = self._latest.get(fingerprint)
            resolution = (
                resolve_duplicate(previous, record) if previous is not None else None
            )
            if resolution is not None and not resolution.keep_newcomer:
                fate = "dropped"
                self.dropped += 1
            else:
                self.store.append(result)
                self._latest[fingerprint] = result.to_record()
                self.accepted += 1
                self._ingested_metric.inc()
                self._observe_cell(result)
                fate = "accepted"
                if resolution is not None and resolution.conflict:
                    fate = "conflict"
                    self.conflicts += 1
            if previous is not None:
                self.duplicates += 1
            self._fate_metric.labels(fate=fate).inc()
            # A record from any stream retires a submitted cell and
            # completes its lease — for *every* fate: even a dropped
            # duplicate proves the cell ran somewhere.  Both happen under
            # the ingest lock, so a concurrent submit sees either neither
            # or both.
            self._failures.pop(fingerprint, None)
            self._pending.pop(fingerprint, None)
            self.leases.complete(fingerprint)
        return fate

    def _observe_cell(self, result: CellResult) -> None:
        for phase, seconds in (result.timings or {}).items():
            self._cell_phase_seconds.labels(phase=phase).observe(seconds)
        for dispatch, rounds in (result.engine_rounds or {}).items():
            engine_kind, _, rest = dispatch.partition("/")
            kernel, _, backend = rest.partition("/")
            self._engine_rounds.labels(
                engine=engine_kind, kernel=kernel or "unknown",
                backend=backend or "-",
            ).inc(rounds)

    # ------------------------------------------------------------------
    # the local worker (a thread of this process, cells on the pool)
    # ------------------------------------------------------------------
    def _run_submitted(self) -> None:
        """Run the lease loop over submitted cells whenever any is
        pending, until shutdown is requested and none is left."""
        while True:
            with self._work:
                while not self._pending and not self._shutdown.is_set():
                    self._work.wait()
                if not self._pending:
                    return
            self._worker.run()

    def _settle(self, outcome: CellOutcome) -> bool:
        """The local worker's sink: ingest a result, or record the failure
        of a cell that raised, died with its pool process or could not
        be stored.  Returns whether the cell was stored."""
        error = outcome.error
        if error is None:
            try:
                self.ingest(outcome.result.to_record())
                return True
            except Exception as ingest_error:  # noqa: BLE001 - a cell failure
                error = repr(ingest_error)
        cell = outcome.cell
        with self._lock:
            # Not pending: another stream's record retired it meanwhile.
            if self._pending.pop(cell.fingerprint, None) is not None:
                self._failures[cell.fingerprint] = {
                    "scenario": cell.scenario,
                    "n": cell.n,
                    "seed": cell.seed,
                    "error": error,
                }
        return False

    # ------------------------------------------------------------------
    # protocol handling
    # ------------------------------------------------------------------
    def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if op == "submit":
            return self._handle_submit(request)
        if op == "status":
            return self._handle_status(request)
        if op == "push":
            return self._handle_push(request)
        if op == "report":
            with self._lock:
                records = list(self._latest.values())
            if not records:
                return error_response("the collector has no results to report on")
            return ok_response(records=len(records), **report_payload(records))
        if op == "metrics":
            return ok_response(metrics=self.registry.render())
        if op == "register":
            return self._handle_register(request)
        if op == "heartbeat":
            return self._handle_heartbeat(request)
        if op == "lease":
            return self._handle_lease(request)
        if op == "shutdown":
            self.stop()
            return ok_response(stopping=True)
        return error_response(
            f"unknown op {op!r} (expected submit/status/push/report/"
            f"metrics/register/heartbeat/lease/shutdown)"
        )

    def _handle_submit(self, request: dict[str, Any]) -> dict[str, Any]:
        if self.pool is None:
            return error_response(
                "this server runs no local workers (serve --workers 0); run "
                "the suite on fleet workers instead: run <suite> --fleet "
                "<this endpoint>"
            )
        if self._shutdown.is_set():
            return error_response("server is shutting down; submit rejected")
        suite_name = request.get("suite")
        if suite_name is None:
            return error_response("submit requires a 'suite' field")
        if not isinstance(suite_name, str) or not suite_name:
            return error_response(
                f"submit: 'suite' must be a non-empty string, got {suite_name!r}"
            )
        smoke = request.get("smoke", False)
        if not isinstance(smoke, bool):
            return error_response(
                f"submit: 'smoke' must be a JSON boolean, got {smoke!r}"
            )
        try:
            suite = get_suite(suite_name)
        except KeyError as error:
            return error_response(error.args[0])
        try:
            sizes = _int_tuple_field("sizes", request.get("sizes"))
            seeds = _int_tuple_field("seeds", request.get("seeds"))
        except ValueError as error:
            return error_response(str(error))
        cells = suite.cells(smoke=smoke, sizes=sizes, seeds=seeds)
        with self._work:
            # Re-check under the lock: stop() also takes it, so cells
            # queued here are queued before the flag can flip and the
            # local worker is guaranteed to drain them.
            if self._shutdown.is_set():
                return error_response("server is shutting down; submit rejected")
            queued = []
            for cell in cells:
                if self._latest.get(cell.fingerprint, {}).get("verified"):
                    continue
                queued.append(cell.fingerprint)
                self._pending.setdefault(cell.fingerprint, (suite.name, cell))
                self._failures.pop(cell.fingerprint, None)
            # An unverified record completed its lease; re-running the
            # cell needs it leasable again.
            self.leases.reopen(queued)
            self._work.notify_all()
        return ok_response(
            total_cells=len(cells),
            skipped=len(cells) - len(queued),
            fingerprints=queued,
        )

    def _handle_status(self, request: dict[str, Any]) -> dict[str, Any]:
        fingerprints = request.get("fingerprints")
        if fingerprints is None:
            return ok_response(
                records=len(self._latest),
                accepted=self.accepted,
                duplicates=self.duplicates,
                dropped=self.dropped,
                conflicts=self.conflicts,
                malformed_store_records=self.malformed_store_records,
                pending=len(self._pending),
                workers=self.pool.workers if self.pool is not None else 0,
                store=str(self.store.path),
                uptime_s=self._uptime_s(),
                records_per_s=self._records_per_s(),
            )
        if not isinstance(fingerprints, list) or not all(
            isinstance(item, str) for item in fingerprints
        ):
            return error_response(
                "status: 'fingerprints' must be a list of cell fingerprint strings"
            )
        with self._lock:
            pending = sum(1 for fp in fingerprints if fp in self._pending)
            failures = [self._failures[fp] for fp in fingerprints if fp in self._failures]
            stored = [
                self._latest[fp]
                for fp in fingerprints
                if fp in self._latest
                and fp not in self._pending
                and fp not in self._failures
            ]
        return ok_response(
            completed=len(stored),
            unverified=sum(1 for record in stored if not record.get("verified")),
            failures=failures,
            pending=pending,
            done=pending == 0,
        )

    # ------------------------------------------------------------------
    # fleet verbs (the lease-based control plane)
    # ------------------------------------------------------------------
    def _handle_register(self, request: dict[str, Any]) -> dict[str, Any]:
        worker = request.get("worker")
        if not isinstance(worker, str) or not worker:
            return error_response(
                "register requires a non-empty 'worker' name string"
            )
        return ok_response(**self.leases.register(worker))

    def _handle_heartbeat(self, request: dict[str, Any]) -> dict[str, Any]:
        worker_id = request.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            return error_response("heartbeat requires a 'worker_id' string")
        return ok_response(**self.leases.heartbeat(worker_id))

    def _handle_lease(self, request: dict[str, Any]) -> dict[str, Any]:
        worker_id = request.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            return error_response("lease requires a 'worker_id' string")
        fingerprints = request.get("fingerprints")
        if not isinstance(fingerprints, list) or not all(
            isinstance(item, str) and item for item in fingerprints
        ):
            return error_response(
                "lease requires a 'fingerprints' list of cell fingerprint "
                "strings (the worker's offered universe)"
            )
        release = request.get("release", [])
        if not isinstance(release, list) or not all(
            isinstance(item, str) for item in release
        ):
            return error_response(
                "lease: 'release' must be a list of fingerprint strings"
            )
        return ok_response(**self.leases.grant(
            worker_id, fingerprints, release=release
        ))

    def _handle_push(self, request: dict[str, Any]) -> dict[str, Any]:
        records = request.get("records")
        if not isinstance(records, list):
            return error_response("push requires a 'records' list")
        # Validate the whole batch before ingesting any of it: a bad
        # record mid-batch must not leave a half-ingested prefix whose
        # counts are lost and whose retry would double-ingest.
        for index, record in enumerate(records):
            if not isinstance(record, dict):
                return error_response(
                    f"push record {index} is not a JSON object (cell record)"
                )
            fingerprint = record.get("fingerprint")
            if not isinstance(fingerprint, str) or not fingerprint:
                return error_response(
                    f"push record {index} lacks a fingerprint field"
                )
            try:
                CellResult.from_record(record)
            except (KeyError, TypeError, ValueError) as error:
                return error_response(
                    f"push record {index} is not a valid cell record ({error!r})"
                )
        self._push_batch_records.observe(len(records))
        self._last_push_monotonic = time.monotonic()
        counts = {"accepted": 0, "dropped": 0, "conflicts": 0}
        for record in records:
            fate = self.ingest(record)
            if fate == "dropped":
                counts["dropped"] += 1
            else:
                counts["accepted"] += 1
                if fate == "conflict":
                    counts["conflicts"] += 1
        return ok_response(**counts)

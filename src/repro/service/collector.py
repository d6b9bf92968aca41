"""The sweep server: one deduplicated store and the lease table.

``python -m repro.experiments serve`` runs one :class:`ResultCollector`:
a :class:`~repro.service.protocol.LineServer` on one endpoint
(``--listen``: a ``host:port`` is token-authenticated TCP, anything else
a Unix socket path), in front of one fingerprint-deduplicated
:class:`~repro.experiments.store.ResultStore` (``--out``).  The server
computes nothing: ``run <suite> --fleet ENDPOINT`` workers on any
machine lease cells from its
:class:`~repro.service.leases.LeaseTable` and ``push`` each result back,
and every record reaches the store through :meth:`ResultCollector.ingest`.
A record for a leased cell from *any* stream retires the lease.  The
store is a perfectly ordinary store: ``report --out`` reads it
unchanged, and the ``report`` verb serves the same bytes over the wire.

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
``status``
    ``records`` (distinct fingerprints stored) and ``duplicates``
    (records that arrived for a fingerprint already stored).
``push``
    ``{"op": "push", "records": [<cell record>, ...]}``: ingest a batch.
``report``
    The rendered report bundle over the whole store — the same bytes
    ``report --json`` would write from it.
``metrics``
    The server's full Prometheus-text exposition (ingest counters by
    fate, per-phase cell timings, simulator rounds per engine, lease
    fates, per-verb latency).  Counters are cumulative since the server
    started; two saved scrapes compared with ``dashboard --diff`` show
    what changed between them.
``register`` / ``heartbeat`` / ``lease``
    The elastic-fleet control plane (:mod:`repro.service.leases`): a
    worker registers its offer once (``{"op": "register",
    "fingerprints": [...]}``), leases one pending cell of it per request
    (``{"op": "lease", "worker_id": ..., "release": [...]}``, handing
    back the cells it failed) under heartbeat-renewed leases, and
    streams results back through ``push`` — which doubles as lease
    completion.  A worker that stops heartbeating has its leases expired
    and handed to whoever asks next; the ``metrics`` scrape counts
    workers alive and lost (``fleet_workers``) and lease events by fate
    (``fleet_leases_total``).
``shutdown``
    Stop serving.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any

from repro.experiments.report import report_payload
from repro.experiments.store import (
    DEFAULT_OUT,
    CellResult,
    ResultStore,
    resolve_duplicate,
)
from repro.obs import MetricsRegistry
from repro.service.leases import DEFAULT_HEARTBEAT_INTERVAL_S, LeaseTable
from repro.service.protocol import (
    Endpoint,
    LineServer,
    error_response,
    ok_response,
    resolve_token,
)

__all__ = ["DEFAULT_SOCKET", "ResultCollector"]

#: Default endpoint: a Unix socket next to the default result store.
DEFAULT_SOCKET = "experiments/service.sock"

#: The verb table's names, in the order the unknown-op error lists them.
VERBS = (
    "status", "push", "report", "metrics",
    "register", "heartbeat", "lease", "shutdown",
)


def _fingerprint_list(value: Any) -> bool:
    """Whether ``value`` is a list of non-empty fingerprint strings."""
    return isinstance(value, list) and all(
        isinstance(item, str) and item for item in value
    )


class ResultCollector:
    """The sweep server: one deduplicated store and the lease table."""

    def __init__(
        self,
        out: str | Path = DEFAULT_OUT,
        listen: str | Path = DEFAULT_SOCKET,
        token: str | None = None,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    ) -> None:
        self.store = ResultStore(out)
        self.listen = listen
        self.token = resolve_token(token)
        #: The endpoint :meth:`start` bound (a ``host:0`` listen's port
        #: included); ``None`` before it.
        self.endpoint: Endpoint | None = None
        self._latest: dict[str, dict[str, Any]] = {}
        self._lock = threading.Lock()
        self._shutdown = threading.Event()
        self._server: LineServer | None = None
        # Cumulative ingest counters (status serves records and
        # duplicates; serve prints the rest when it stops).
        self.accepted = 0
        self.dropped = 0
        self.duplicates = 0
        self.conflicts = 0
        #: Store lines skipped at startup for not being cell records —
        #: surfaced by the metrics gauge instead of refusing to serve.
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
            "Store lines skipped at startup for not being cell records.",
        ).set_function(lambda: float(self.malformed_store_records))
        # Cell phase timings and simulator rounds come off the records
        # themselves: cells run on fleet machines, so their accounts
        # travel inside the record and land here at ingest.
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

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the endpoint, read the store, then accept.

        Every endpoint problem (an over-long socket path, a live server
        on the socket, TCP without a token) is refused by the bind,
        before the store is read, and no request is answered before the
        store has been read.  A store that fails to load closes the
        listener again, so no socket file is left behind.

        A restarted server picks up exactly where it stopped: the
        store's records are replayed through the same duplicate policy,
        so a verified record that survived the previous run still blocks
        unverified latecomers.
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        server = LineServer(
            self._dispatch,
            token=self.token,
            name="result-collector",
            close_after=lambda request, _: request.get("op") == "shutdown",
            registry=self.registry,
            verbs=VERBS,
        )
        endpoint = server.bind(self.listen)
        try:
            self._replay_store()
            server.start()
        except BaseException:
            server.close()
            raise
        self._server = server
        self.endpoint = endpoint
        self._started_monotonic = time.monotonic()

    def _replay_store(self) -> None:
        """Rebuild the dedup index and the completed cells from the store."""
        lines = self.store.lines()
        self.store_records_at_start = len(lines)
        for _, record in lines:
            try:
                fingerprint = CellResult.from_record(record).fingerprint
            except ValueError:
                # One corrupt line must not brick a restart (and with it
                # collector-aware resume): skip it, count it, surface the
                # count via the malformed-records gauge.  The line stays
                # in the JSONL file untouched for forensics.
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
        """Request shutdown: :meth:`serve_forever` returns."""
        self._shutdown.set()

    def close(self) -> None:
        """Stop and release every resource."""
        self.stop()
        if self._server is not None:
            # The server unlinks only a socket *it* bound: a close()
            # after a failed start ("another server is serving") has no
            # server and must not sever the live one owning the file.
            self._server.close()
            self._server = None

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
        result = CellResult.from_record(record)
        fingerprint = result.fingerprint
        with self._lock:
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
            # A record from any stream retires the cell's lease — for
            # *every* fate: even a dropped duplicate proves the cell ran
            # somewhere.  Only a verified kept record completes the cell,
            # as seed_completed does at a restart; an unverified one is
            # leased again to a later worker.
            if self._latest[fingerprint].get("verified"):
                self.leases.complete(fingerprint)
            else:
                self.leases.retire(fingerprint)
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
    # protocol handling
    # ------------------------------------------------------------------
    def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if op == "status":
            return ok_response(
                records=len(self._latest), duplicates=self.duplicates
            )
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
        return error_response(f"unknown op {op!r} (expected {'/'.join(VERBS)})")

    # ------------------------------------------------------------------
    # fleet verbs (the lease-based control plane)
    # ------------------------------------------------------------------
    def _handle_register(self, request: dict[str, Any]) -> dict[str, Any]:
        fingerprints = request.get("fingerprints")
        if not _fingerprint_list(fingerprints):
            return error_response(
                "register requires a 'fingerprints' list of cell fingerprint "
                "strings (the worker's offer)"
            )
        return ok_response(**self.leases.register(fingerprints))

    def _handle_heartbeat(self, request: dict[str, Any]) -> dict[str, Any]:
        worker_id = request.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            return error_response("heartbeat requires a 'worker_id' string")
        return ok_response(**self.leases.heartbeat(worker_id))

    def _handle_lease(self, request: dict[str, Any]) -> dict[str, Any]:
        worker_id = request.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            return error_response("lease requires a 'worker_id' string")
        release = request.get("release", [])
        if not _fingerprint_list(release):
            return error_response(
                "lease: 'release' must be a list of fingerprint strings"
            )
        return ok_response(**self.leases.grant(worker_id, release=release))

    def _handle_push(self, request: dict[str, Any]) -> dict[str, Any]:
        records = request.get("records")
        if not isinstance(records, list):
            return error_response("push requires a 'records' list")
        # Validate the whole batch before ingesting any of it: a bad
        # record mid-batch must not leave a half-ingested prefix whose
        # retry would double-ingest.
        for index, record in enumerate(records):
            try:
                CellResult.from_record(record)
            except ValueError as error:
                return error_response(
                    f"push record {index} is not a cell record: {error}"
                )
        self._push_batch_records.observe(len(records))
        self._last_push_monotonic = time.monotonic()
        for record in records:
            self.ingest(record)
        return ok_response()

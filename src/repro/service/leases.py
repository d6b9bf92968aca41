"""Elastic fleet scheduling: leases over the cell-fingerprint space.

Static ``--shard i/k`` partitioning assumes ``k`` healthy, equal
machines for the whole sweep — one lost worker strands its shard until
a human reruns it.  The lease model drops that assumption: workers
*register* with the collector, *pull* batches of pending cells under
short-lived leases, renew them from a background heartbeat thread, and
stream each completed cell back through the ordinary ``push`` verb
(push doubles as lease completion).  A lease whose worker stops
heartbeating expires and its fingerprints return to the pending set,
where any live worker picks them up on its next ``lease`` call — the
robustness jump from "k machines" to "whatever shows up".

Two halves live here:

:class:`LeaseTable`
    The collector-side scheduler state: registered workers, heartbeat
    deadlines, active leases and the completed-fingerprint set, all
    under one lock and all on the **monotonic** clock (a wall-clock step
    must never mass-expire leases).  Expiry is lazy — checked at the
    top of every verb — so the table needs no background thread of its
    own.  Every lease event is reported through an optional callback,
    which is how the collector turns scheduling into
    ``fleet_leases_total{fate}`` metrics without this module importing
    any observability code.

:class:`FleetWorker`
    The worker-side loop behind ``run <suite> --fleet host:port``: it
    offers the suite's fingerprint universe, runs the granted cells on a
    warm :class:`~repro.experiments.runner.WorkerPool`, one cell per task,
    appends each result to its local store and pushes it via
    :class:`~repro.service.client.CollectorSink`.  A replacement worker
    "resumes" a dead machine's sweep with no JSONL copying at all: the
    collector already knows the completed fingerprints and simply never
    grants them again.

Lease lifecycle fates (the ``fate`` label of ``fleet_leases_total``):

``granted``
    A pending fingerprint was handed to a worker.
``renewed``
    A heartbeat (or an explicit re-grant) pushed a lease deadline out.
``expired``
    The deadline passed without a heartbeat; the fingerprint is pending
    again.
``released``
    The worker gave the fingerprint back voluntarily (its cell raised),
    so another worker may try it.
``reassigned``
    A previously expired or released fingerprint was granted again —
    the recovery event the elastic-fleet smoke test asserts on.
``completed``
    A pushed record retired the lease.
"""

from __future__ import annotations

import os
import socket as socket_module
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.experiments.runner import (
    CellFailure,
    SweepReport,
    WorkerPool,
    make_recorder,
)
from repro.experiments.spec import Suite
from repro.experiments.store import CellResult, ResultStore
from repro.local import check_engine_mode
from repro.service.client import CollectorSink, ServiceClient

__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL_S",
    "DEFAULT_LEASE_BATCH",
    "LEASE_FATES",
    "FleetWorker",
    "Lease",
    "LeaseTable",
    "WorkerEntry",
]

#: How often a fleet worker heartbeats, and the base unit of the lease
#: TTL.  The collector hands this to workers at registration, so one
#: ``--heartbeat-interval`` flag tunes the whole fleet.
DEFAULT_HEARTBEAT_INTERVAL_S = 2.0

#: Lease TTL as a multiple of the heartbeat interval: a worker must miss
#: two consecutive heartbeats before its leases are up for reassignment.
DEFAULT_TTL_HEARTBEATS = 2.0

#: Fingerprints per lease grant.
DEFAULT_LEASE_BATCH = 8

#: Every fate the event callback can report (metrics label values).
LEASE_FATES = (
    "granted", "renewed", "expired", "released", "reassigned", "completed",
)


@dataclass
class WorkerEntry:
    """One registered fleet worker, as the collector sees it."""

    worker_id: str
    name: str
    registered_unix: float
    last_seen: float  # monotonic
    heartbeats: int = 0
    completed: int = 0

    def describe(self, alive: bool, leases: int) -> dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "name": self.name,
            "state": "alive" if alive else "lost",
            "registered_unix": self.registered_unix,
            "heartbeats": self.heartbeats,
            "completed": self.completed,
            "leases": leases,
        }


@dataclass
class Lease:
    """One fingerprint on loan to one worker, with a monotonic deadline."""

    fingerprint: str
    worker_id: str
    granted_at: float  # monotonic
    deadline: float  # monotonic
    renewals: int = 0

    def age_s(self, now: float) -> float:
        return max(0.0, now - self.granted_at)


class LeaseTable:
    """Worker registry + lease ledger over the cell-fingerprint space.

    Thread-safe: every public method takes the table lock, and every
    mutating method first sweeps expired leases, so callers never see a
    lease that has outlived its deadline.  ``clock`` is injectable for
    deterministic tests and defaults to :func:`time.monotonic`.
    ``on_event(fate, age_s)`` fires once per lease event (``age_s`` is
    ``None`` except on ``completed``/``expired``/``released``, where it
    is the lease's age) — the collector points it at its metrics.
    """

    def __init__(
        self,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        lease_ttl_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        on_event: Callable[[str, float | None], None] | None = None,
    ) -> None:
        if heartbeat_interval_s <= 0:
            raise ValueError(
                f"heartbeat interval must be positive, got {heartbeat_interval_s}"
            )
        if lease_ttl_s is None:
            lease_ttl_s = heartbeat_interval_s * DEFAULT_TTL_HEARTBEATS
        if lease_ttl_s < heartbeat_interval_s:
            raise ValueError(
                f"lease TTL ({lease_ttl_s}s) must be at least the heartbeat "
                f"interval ({heartbeat_interval_s}s) or every lease expires "
                f"between beats"
            )
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.lease_ttl_s = float(lease_ttl_s)
        self._clock = clock
        self._on_event = on_event
        self._lock = threading.Lock()
        self._workers: dict[str, WorkerEntry] = {}
        self._leases: dict[str, Lease] = {}
        self._completed: set[str] = set()
        # Fingerprints whose lease expired or was released: granting one
        # of these again is the "reassigned" recovery event.
        self._orphaned: set[str] = set()
        self._worker_counter = 0
        self.counts: dict[str, int] = {fate: 0 for fate in LEASE_FATES}

    # ------------------------------------------------------------------
    # internals (call with the lock held)
    # ------------------------------------------------------------------
    def _event(self, fate: str, age_s: float | None = None) -> None:
        self.counts[fate] += 1
        if self._on_event is not None:
            self._on_event(fate, age_s)

    def _expire(self, now: float) -> None:
        """Sweep leases past their deadline back into the pending set."""
        expired = [
            lease for lease in self._leases.values() if lease.deadline < now
        ]
        for lease in expired:
            del self._leases[lease.fingerprint]
            self._orphaned.add(lease.fingerprint)
            self._event("expired", lease.age_s(now))

    def _alive(self, worker: WorkerEntry, now: float) -> bool:
        return (now - worker.last_seen) <= self.lease_ttl_s

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def register(self, name: str) -> dict[str, Any]:
        """Add a worker; returns its id and the fleet cadence settings."""
        now = self._clock()
        with self._lock:
            self._expire(now)
            self._worker_counter += 1
            worker_id = f"worker-{self._worker_counter}"
            self._workers[worker_id] = WorkerEntry(
                worker_id=worker_id,
                name=str(name),
                registered_unix=time.time(),
                last_seen=now,
            )
            return {
                "worker_id": worker_id,
                "heartbeat_interval_s": self.heartbeat_interval_s,
                "lease_ttl_s": self.lease_ttl_s,
            }

    def heartbeat(self, worker_id: str) -> dict[str, Any] | None:
        """Mark the worker live and renew all its leases.

        Returns ``None`` for an unknown worker — the collector answers
        ``known: false`` and the worker re-registers, which is how a
        fleet survives a collector restart (the lease table is in-memory
        state; the *results* are durable in the store).
        """
        now = self._clock()
        with self._lock:
            self._expire(now)
            worker = self._workers.get(worker_id)
            if worker is None:
                return None
            worker.last_seen = now
            worker.heartbeats += 1
            renewed = 0
            for lease in self._leases.values():
                if lease.worker_id == worker_id:
                    lease.deadline = now + self.lease_ttl_s
                    lease.renewals += 1
                    renewed += 1
                    self._event("renewed")
            return {"leases": renewed}

    def grant(
        self,
        worker_id: str,
        offered: Sequence[str],
        limit: int = DEFAULT_LEASE_BATCH,
        release: Sequence[str] = (),
    ) -> dict[str, Any] | None:
        """Lease up to ``limit`` pending fingerprints from ``offered``.

        ``offered`` is the worker's whole fingerprint universe (its view
        of the suite); the table subtracts what is already completed or
        actively leased.  ``release`` hands back fingerprints the worker
        will not finish (failed cells) so another worker may try them.
        Returns ``None`` for an unknown worker.  The reply's ``done``
        flag is true only when every offered fingerprint is completed —
        an empty grant with ``done`` false means other workers hold the
        remainder, so the caller should poll again, not exit.
        """
        now = self._clock()
        with self._lock:
            self._expire(now)
            worker = self._workers.get(worker_id)
            if worker is None:
                return None
            worker.last_seen = now
            for fingerprint in release:
                lease = self._leases.get(fingerprint)
                if lease is not None and lease.worker_id == worker_id:
                    del self._leases[fingerprint]
                    self._orphaned.add(fingerprint)
                    self._event("released", lease.age_s(now))
            pending = [
                fingerprint
                for fingerprint in offered
                if fingerprint not in self._completed
                and fingerprint not in self._leases
            ]
            granted = pending[:limit]
            for fingerprint in granted:
                self._leases[fingerprint] = Lease(
                    fingerprint=fingerprint,
                    worker_id=worker_id,
                    granted_at=now,
                    deadline=now + self.lease_ttl_s,
                )
                self._event("granted")
                if fingerprint in self._orphaned:
                    self._orphaned.discard(fingerprint)
                    self._event("reassigned")
            outstanding = sum(
                1 for fingerprint in offered if fingerprint in self._leases
            )
            return {
                "granted": granted,
                "pending": len(pending) - len(granted),
                "outstanding": outstanding - len(granted),
                "done": not pending and outstanding == 0,
            }

    def complete(self, fingerprint: str) -> None:
        """Mark a fingerprint done; retires its lease if one is active.

        Wired to the collector's ``push`` ingest, so completion needs no
        verb of its own — and a record streamed by a *non*-fleet shard
        worker still informs the scheduler.
        """
        now = self._clock()
        with self._lock:
            self._expire(now)
            lease = self._leases.pop(fingerprint, None)
            self._completed.add(fingerprint)
            self._orphaned.discard(fingerprint)
            if lease is not None:
                worker = self._workers.get(lease.worker_id)
                if worker is not None:
                    worker.completed += 1
                self._event("completed", lease.age_s(now))

    def seed_completed(self, fingerprints: Iterable[str]) -> None:
        """Preload completed fingerprints from a restarted collector's
        store (verified records only — mirroring resume semantics)."""
        with self._lock:
            self._completed.update(fingerprints)

    # ------------------------------------------------------------------
    # introspection (fleet_status verb, metrics gauges)
    # ------------------------------------------------------------------
    def worker_counts(self) -> dict[str, int]:
        now = self._clock()
        with self._lock:
            counts = {"alive": 0, "lost": 0}
            for worker in self._workers.values():
                counts["alive" if self._alive(worker, now) else "lost"] += 1
            return counts

    def oldest_lease_age_s(self) -> float:
        """Age of the oldest *active* lease (0 when none) — the
        lease-stuck SLO's input.  Deliberately does not sweep: a stuck
        collector clock or a wedged verb path must not hide the age."""
        now = self._clock()
        with self._lock:
            if not self._leases:
                return 0.0
            return max(lease.age_s(now) for lease in self._leases.values())

    def active_leases(self) -> int:
        with self._lock:
            return len(self._leases)

    def completed_count(self) -> int:
        with self._lock:
            return len(self._completed)

    def fleet_status(self) -> dict[str, Any]:
        """The ``fleet_status`` verb payload: workers, leases, counters."""
        now = self._clock()
        with self._lock:
            self._expire(now)
            held: dict[str, int] = {}
            for lease in self._leases.values():
                held[lease.worker_id] = held.get(lease.worker_id, 0) + 1
            workers = [
                worker.describe(
                    alive=self._alive(worker, now),
                    leases=held.get(worker.worker_id, 0),
                )
                for worker in self._workers.values()
            ]
            oldest = max(
                (lease.age_s(now) for lease in self._leases.values()),
                default=0.0,
            )
            return {
                "heartbeat_interval_s": self.heartbeat_interval_s,
                "lease_ttl_s": self.lease_ttl_s,
                "workers": workers,
                "active_leases": len(self._leases),
                "oldest_lease_age_s": oldest,
                "completed": len(self._completed),
                "lease_counts": dict(self.counts),
            }


def _default_worker_name() -> str:
    return f"{socket_module.gethostname()}-{os.getpid()}"


class FleetWorker:
    """Pull-based sweep worker for ``run <suite> --fleet host:port``.

    Instead of computing a static shard, the worker registers with the
    collector, then loops: lease a batch of pending fingerprints, run
    the cells on a warm :class:`WorkerPool` (``jobs`` of them at once),
    append each result to the local store and push it (push retires the
    lease).  A background heartbeat thread renews the worker's leases every
    ``heartbeat_interval_s`` (the cadence the collector hands out at
    registration), so a cell may run far longer than the lease TTL
    without losing its lease.  Failed cells are *released* back to the
    fleet and excluded from this worker's future offers — another
    machine may still try them, and local resume retries them next
    sweep, exactly like the static path.

    Unlike the fail-soft ``--collector`` sink of a static shard run, a
    push failure here aborts the run: in fleet mode the collector *is*
    the control plane, and a worker that cannot push cannot complete
    leases either.  The local store keeps everything already executed,
    so a rerun resumes collector-aware with no work lost.
    """

    def __init__(
        self,
        suite: Suite,
        store: ResultStore,
        fleet: str,
        token: str | None = None,
        jobs: int = 1,
        smoke: bool = False,
        sizes: tuple[int, ...] | None = None,
        seeds: tuple[int, ...] | None = None,
        engine: str | None = None,
        lease_batch: int = DEFAULT_LEASE_BATCH,
        name: str | None = None,
        progress: Callable[[CellResult], None] | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        if lease_batch < 1:
            raise ValueError(f"lease batch must be at least 1, got {lease_batch}")
        if engine is not None:
            check_engine_mode(engine)
        self.suite = suite
        self.store = store
        self.fleet = fleet
        self.token = token
        self.jobs = jobs
        self.smoke = smoke
        self.sizes = sizes
        self.seeds = seeds
        self.engine = engine
        self.lease_batch = lease_batch
        self.name = name if name else _default_worker_name()
        self.progress = progress
        self.worker_id: str | None = None
        self.heartbeat_interval_s = DEFAULT_HEARTBEAT_INTERVAL_S
        self.pushed = 0
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def _register(self, client: ServiceClient) -> None:
        reply = client.register(self.name)
        self.worker_id = reply["worker_id"]
        self.heartbeat_interval_s = float(reply["heartbeat_interval_s"])

    def _heartbeat_loop(self, client: ServiceClient) -> None:
        """Renew leases until told to stop; re-register if forgotten.

        Transient heartbeat failures are swallowed — the lease loop
        surfaces a real collector outage on its next request, and one
        missed beat inside the TTL costs nothing.
        """
        while not self._stop.wait(self.heartbeat_interval_s):
            try:
                reply = client.heartbeat(self.worker_id)
                if not reply.get("known", True):
                    self._register(client)
            except Exception:  # noqa: BLE001 - transient by design
                continue

    @property
    def poll_interval_s(self) -> float:
        """How long to idle between empty grants: half a heartbeat, so
        a reassignable (expired) lease is picked up well inside the
        2×-heartbeat recovery budget."""
        return max(0.05, self.heartbeat_interval_s / 2)

    # ------------------------------------------------------------------
    def run(self) -> SweepReport:
        """Lease, execute and stream until the suite is fleet-complete."""
        start = time.perf_counter()
        cells = self.suite.cells(
            smoke=self.smoke, sizes=self.sizes, seeds=self.seeds
        )
        by_fingerprint = {cell.fingerprint: cell for cell in cells}
        report = SweepReport(
            suite=self.suite.name,
            total_cells=len(cells),
            skipped=0,
            executed=0,
            unverified=0,
        )
        pool = WorkerPool(workers=self.jobs)
        # Fork the workers before any thread or socket exists: the
        # children must not inherit a mid-flight connection or a lock
        # the heartbeat thread holds.
        pool.start()
        client = ServiceClient(self.fleet, token=self.token)
        sink = CollectorSink(client)
        self._register(client)

        def push(result: CellResult) -> None:
            # The recorder's progress hook, not a fail-soft sink: a push
            # that fails raises out of the lease loop and aborts the run.
            sink(result)
            self.pushed += 1
            if self.progress is not None:
                self.progress(result)

        record = make_recorder(self.store, (), report, push)
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(client,),
            name=f"fleet-heartbeat-{self.name}",
            daemon=True,
        )
        heartbeat.start()
        failed: set[str] = set()
        release: list[str] = []
        try:
            while True:
                offers = [
                    fingerprint
                    for fingerprint in by_fingerprint
                    if fingerprint not in failed
                ]
                reply = client.lease(
                    self.worker_id, offers,
                    limit=self.lease_batch, release=release,
                )
                release = []
                if not reply.get("known", True):
                    # The collector restarted and forgot us; re-register
                    # and retry — completed work is durable in its store.
                    self._register(client)
                    continue
                granted = [
                    fingerprint
                    for fingerprint in reply.get("granted", [])
                    if fingerprint in by_fingerprint
                ]
                if granted:
                    batch = [by_fingerprint[f] for f in granted]
                    for outcome in pool.submit_sweep(
                        self.suite.name, batch, engine=self.engine
                    ):
                        if outcome.ok:
                            record(outcome.result)
                            continue
                        report.failures.append(
                            CellFailure(outcome.cell, outcome.error)
                        )
                        failed.add(outcome.cell.fingerprint)
                        release.append(outcome.cell.fingerprint)
                    continue
                if reply.get("done"):
                    break
                # Nothing pending for us right now, but other workers
                # hold leases (or everything left is failed-everywhere):
                # wait half a beat and ask again — if a holder dies, its
                # expired leases land here.
                self._stop.wait(self.poll_interval_s)
        finally:
            self._stop.set()
            heartbeat.join(timeout=self.heartbeat_interval_s * 2 + 1)
            sink.close()
            pool.shutdown()
        report.skipped = (
            report.total_cells - report.executed - len(report.failures)
        )
        report.wall_clock_s = time.perf_counter() - start
        return report

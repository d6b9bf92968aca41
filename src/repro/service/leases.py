"""Elastic fleet scheduling: leases over the cell-fingerprint space.

Static ``--shard i/k`` partitioning assumes ``k`` healthy, equal
machines for the whole sweep — one lost worker strands its shard until
a human reruns it.  The lease model drops that assumption: workers
*register* with the server, *lease* pending cells one at a time under
short-lived leases, renew them from a background heartbeat thread, and
stream each completed cell back through the ordinary ``push`` verb
(push doubles as lease completion).  A lease whose worker stops
heartbeating expires and its fingerprints return to the pending set,
where any live worker picks them up on its next ``lease`` call — the
robustness jump from "k machines" to "whatever shows up".

Two halves live here:

:class:`LeaseTable`
    The server-side scheduler state: registered workers, heartbeat
    deadlines, active leases and the completed-fingerprint set, all
    under one lock and all on the **monotonic** clock (a wall-clock step
    must never mass-expire leases).  Expiry is lazy — checked at the
    top of every verb — so the table needs no background thread of its
    own.  Every lease event is reported through an optional callback,
    which is how the server turns scheduling into
    ``fleet_leases_total{fate}`` metrics without this module importing
    any observability code.

:class:`LeaseLoop`
    The one worker-side loop, run by the server's local worker (``serve
    --workers N``) against its own verb table and by
    :class:`FleetWorker` (``run <suite> --fleet host:port``) over a
    :class:`~repro.service.client.ServiceClient`, so submitted cells and
    fleet workers share one schedule.  A replacement fleet worker
    "resumes" a dead machine's sweep with no JSONL copying at all: the
    server never grants a completed fingerprint again.

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

import itertools
import math
import os
import socket as socket_module
import threading
import time
from contextlib import AbstractContextManager, closing, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.experiments.runner import (
    CellFailure,
    CellOutcome,
    SweepReport,
    WorkerPool,
    make_recorder,
)
from repro.experiments.spec import Cell, Suite
from repro.experiments.store import CellResult, ResultStore
from repro.service.client import CollectorSink, ServiceClient, ServiceError

__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL_S",
    "FleetWorker",
    "Lease",
    "LeaseLoop",
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


@dataclass
class WorkerEntry:
    """One registered fleet worker, as the collector sees it."""

    worker_id: str
    name: str
    last_seen: float  # monotonic


@dataclass
class Lease:
    """One fingerprint on loan to one worker, with a monotonic deadline."""

    fingerprint: str
    worker_id: str
    granted_at: float  # monotonic
    deadline: float  # monotonic

    def age_s(self, now: float) -> float:
        return max(0.0, now - self.granted_at)


class LeaseTable:
    """Worker registry + lease ledger over the cell-fingerprint space.

    Thread-safe: every public method takes the table lock, and every
    mutating method first sweeps expired leases, so callers never see a
    lease that has outlived its deadline.  A lease lives
    ``DEFAULT_TTL_HEARTBEATS`` heartbeat intervals without a renewal.
    ``clock`` is injectable for deterministic tests and defaults to
    :func:`time.monotonic`.
    ``on_event(fate, age_s)`` fires once per lease event (``age_s`` is
    ``None`` except on ``completed``/``expired``/``released``, where it
    is the lease's age) — the collector points it at its metrics.
    """

    def __init__(
        self,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        clock: Callable[[], float] = time.monotonic,
        on_event: Callable[[str, float | None], None] | None = None,
    ) -> None:
        # NaN fails every comparison: a NaN TTL would never expire a lease.
        if not (0 < heartbeat_interval_s < math.inf):
            raise ValueError(
                f"heartbeat interval must be a positive finite number of "
                f"seconds, got {heartbeat_interval_s}"
            )
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.lease_ttl_s = self.heartbeat_interval_s * DEFAULT_TTL_HEARTBEATS
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

    # ------------------------------------------------------------------
    # internals (call with the lock held)
    # ------------------------------------------------------------------
    def _event(self, fate: str, age_s: float | None = None) -> None:
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
                worker_id=worker_id, name=str(name), last_seen=now
            )
            return {
                "worker_id": worker_id,
                "heartbeat_interval_s": self.heartbeat_interval_s,
                "lease_ttl_s": self.lease_ttl_s,
            }

    def heartbeat(self, worker_id: str) -> dict[str, Any]:
        """Mark the worker live and renew all its leases.

        Answers ``known: false`` for an unknown worker, not an error: the
        worker re-registers, which is how a fleet survives a collector
        restart (the lease table is in-memory state; the *results* are
        durable in the store).
        """
        now = self._clock()
        with self._lock:
            self._expire(now)
            worker = self._workers.get(worker_id)
            if worker is None:
                return {"known": False}
            worker.last_seen = now
            renewed = 0
            for lease in self._leases.values():
                if lease.worker_id == worker_id:
                    lease.deadline = now + self.lease_ttl_s
                    renewed += 1
                    self._event("renewed")
            return {"known": True, "leases": renewed}

    def grant(
        self,
        worker_id: str,
        offered: Sequence[str],
        release: Sequence[str] = (),
    ) -> dict[str, Any]:
        """Lease the first pending fingerprint of ``offered``.

        ``offered`` is the worker's whole fingerprint universe (its view
        of the suite); the table subtracts what is already completed or
        actively leased, and a fingerprint offered twice counts once, at
        its first place in the offer.  ``release`` hands back
        fingerprints the worker will not finish (failed cells) so
        another worker may try them.  Answers ``known: false`` for an
        unknown worker.  The reply's ``done`` flag is true only when
        every offered fingerprint is completed — an empty grant with
        ``done`` false means other workers hold the remainder, so the
        caller should poll again, not exit.
        """
        offered = list(dict.fromkeys(offered))
        now = self._clock()
        with self._lock:
            self._expire(now)
            worker = self._workers.get(worker_id)
            if worker is None:
                return {"known": False, "granted": [], "done": False}
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
            granted = pending[:1]
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
                "known": True,
                "granted": granted,
                "pending": len(pending) - len(granted),
                "outstanding": outstanding - len(granted),
                "done": not pending and outstanding == 0,
            }

    def complete(self, fingerprint: str) -> None:
        """Mark a fingerprint done; retires its lease if one is active.

        Wired to the server's ingest, so completion needs no verb of its
        own — and a record from any stream (a fleet push, the local
        worker, a bare ``push``) informs the scheduler.
        """
        now = self._clock()
        with self._lock:
            self._expire(now)
            lease = self._leases.pop(fingerprint, None)
            self._completed.add(fingerprint)
            self._orphaned.discard(fingerprint)
            if lease is not None:
                self._event("completed", lease.age_s(now))

    def seed_completed(self, fingerprints: Iterable[str]) -> None:
        """Preload completed fingerprints from a restarted collector's
        store (verified records only — mirroring resume semantics)."""
        with self._lock:
            self._completed.update(fingerprints)

    def reopen(self, fingerprints: Iterable[str]) -> None:
        """Make completed fingerprints leasable again: a submit re-runs
        cells whose stored record is unverified, like a resumed sweep."""
        with self._lock:
            self._completed.difference_update(fingerprints)

    # ------------------------------------------------------------------
    # introspection (metrics gauges)
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


class LeaseLoop:
    """Register once, heartbeat from one thread, lease one cell each
    time the warm :class:`WorkerPool` pulls one, and hand each outcome to
    a sink.

    ``request(payload)`` answers the ``register``, ``heartbeat`` and
    ``lease`` verbs: a :class:`ServiceClient`'s for a fleet worker, the
    server's own verb table for its local worker.  ``offer()`` maps each
    fingerprint the worker would run to its ``(suite name, cell)``, read
    under ``lock`` together with the lease request (the server passes its
    ingest lock, so a granted cell is still pending).  ``sink(outcome)``
    returns false for a failed cell, whose lease is released at once; an
    exception from it ends the loop.  The heartbeat renews the worker's
    leases every ``heartbeat_interval_s``, the cadence the server hands
    out at registration, so a cell may outlive the lease TTL.
    """

    def __init__(
        self,
        request: Callable[[dict[str, Any]], dict[str, Any]],
        pool: WorkerPool,
        name: str,
        offer: Callable[[], Mapping[str, tuple[str, Cell]]],
        sink: Callable[[CellOutcome], bool],
        lock: AbstractContextManager = nullcontext(),
    ) -> None:
        self.request = request
        self.pool = pool
        self.name = name
        self.offer = offer
        self.sink = sink
        self._lock = lock
        self.worker_id: str | None = None
        self.heartbeat_interval_s = DEFAULT_HEARTBEAT_INTERVAL_S
        self._stop = threading.Event()
        self._heartbeat: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Register, then heartbeat from one thread until :meth:`stop`."""
        self._register()
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name=f"lease-heartbeat-{self.name}",
            daemon=True,
        )
        self._heartbeat.start()

    def stop(self) -> None:
        """Stop heartbeating; the worker's leases then lapse with the TTL."""
        self._stop.set()
        if self._heartbeat is not None:
            self._heartbeat.join(timeout=self.heartbeat_interval_s * 2 + 1)
            self._heartbeat = None

    def _register(self) -> None:
        reply = self.request({"op": "register", "worker": self.name})
        self.worker_id = reply["worker_id"]
        self.heartbeat_interval_s = float(reply["heartbeat_interval_s"])

    def _heartbeat_loop(self) -> None:
        """Renew leases until stopped; re-register if forgotten.  A failed
        beat is swallowed: the lease loop surfaces a real outage on its
        next request, and one missed beat inside the TTL costs nothing."""
        while not self._stop.wait(self.heartbeat_interval_s):
            try:
                beat = self.request(
                    {"op": "heartbeat", "worker_id": self.worker_id}
                )
                if not beat["known"]:
                    self._register()
            except Exception:  # noqa: BLE001 - transient by design
                continue

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Lease, run and settle cells until every offered cell is complete."""
        while True:
            leased, done = self._lease()
            if leased is not None:
                with closing(self._sweep(*leased)) as outcomes:
                    for outcome in outcomes:
                        if not self.sink(outcome):
                            self._release(outcome.cell.fingerprint)
            elif done:
                return
            else:
                # Other workers hold what is left: ask again in half a
                # beat, well inside the 2x-heartbeat TTL, so a holder
                # that dies has its expired leases granted here.
                self._stop.wait(self.heartbeat_interval_s / 2)

    def _lease(
        self, suite_name: str | None = None
    ) -> tuple[tuple[str, Cell] | None, bool]:
        """Lease one offered cell, of ``suite_name`` if given: the granted
        ``(suite name, cell)`` or ``None``, and whether every offered
        cell is complete."""
        with self._lock:
            offered = self.offer()
            reply = self.request({
                "op": "lease",
                "worker_id": self.worker_id,
                "fingerprints": [
                    fingerprint
                    for fingerprint, (suite, _) in offered.items()
                    if suite_name is None or suite == suite_name
                ],
            })
            leased = next(
                (offered[f] for f in reply["granted"] if f in offered), None
            )
        if not reply["known"]:
            # The server restarted and forgot this worker: register again
            # and ask next time — completed work is durable in its store.
            self._register()
        return leased, reply["done"]

    def _release(self, fingerprint: str) -> None:
        # An empty offer: lease nothing, hand this one back.
        self.request({
            "op": "lease", "worker_id": self.worker_id,
            "fingerprints": [], "release": [fingerprint],
        })

    def _sweep(self, suite_name: str, first: Cell) -> Iterator[CellOutcome]:
        """Run leased cells of one suite on the pool, streaming outcomes.

        The pool pulls the next cell as each outcome arrives, and each
        pull leases one more offered cell of the suite, so every pool
        process stays busy until nothing of the suite is leasable.
        Should the pool itself break (a failed fork, say), every leased
        cell still without an outcome fails with the error.  A failed
        lease request is no cell's failure: it propagates.
        """
        running = {first.fingerprint: first}

        def pull() -> Cell | None:
            leased, _ = self._lease(suite_name)
            if leased is None:
                return None
            cell = leased[1]
            running[cell.fingerprint] = cell
            return cell

        cells = itertools.chain([first], iter(pull, None))
        try:
            with closing(self.pool.submit_sweep(suite_name, cells)) as outcomes:
                for outcome in outcomes:
                    running.pop(outcome.cell.fingerprint, None)
                    yield outcome
        except ServiceError:
            raise
        except Exception as error:  # noqa: BLE001 - fails the leased cells
            for cell in list(running.values()):
                yield CellOutcome(cell=cell, result=None, error=repr(error))


def _default_worker_name() -> str:
    return f"{socket_module.gethostname()}-{os.getpid()}"


class FleetWorker:
    """Pull-based sweep worker for ``run <suite> --fleet host:port``.

    Instead of computing a static shard, the worker runs the
    :class:`LeaseLoop` against the server, offering the suite's cells,
    on a warm :class:`WorkerPool` of ``jobs`` processes.  It appends each
    result to the local store and pushes it (push retires the lease).
    Failed cells are *released* back to the fleet and left out of this
    worker's later offers — another machine may still try them, and
    local resume retries them next sweep, exactly like the static path.

    A push failure aborts the run: the server is the control plane, and
    a worker that cannot push cannot complete leases either.  The local
    store keeps everything already executed, so a rerun resumes
    server-aware with no work lost.
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
        name: str | None = None,
        progress: Callable[[CellResult], None] | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        self.suite = suite
        self.store = store
        self.fleet = fleet
        self.token = token
        self.jobs = jobs
        self.smoke = smoke
        self.sizes = sizes
        self.seeds = seeds
        self.name = name if name else _default_worker_name()
        self.progress = progress
        self.pushed = 0

    def run(self) -> SweepReport:
        """Lease, execute and stream until the suite is fleet-complete."""
        start = time.perf_counter()
        cells = self.suite.cells(
            smoke=self.smoke, sizes=self.sizes, seeds=self.seeds
        )
        report = SweepReport(
            suite=self.suite.name,
            total_cells=len(cells),
            skipped=0,
            executed=0,
            unverified=0,
        )
        # A bad endpoint fails here, before anything forks.
        client = ServiceClient(self.fleet, token=self.token)
        sink = CollectorSink(client)

        def push(result: CellResult) -> None:
            # The recorder's progress hook: a push that fails raises out
            # of the lease loop and aborts the run.
            sink(result)
            self.pushed += 1
            if self.progress is not None:
                self.progress(result)

        record = make_recorder(self.store, report, push)
        failed: set[str] = set()

        def settle(outcome: CellOutcome) -> bool:
            if outcome.ok:
                record(outcome.result)
                return True
            report.failures.append(CellFailure(outcome.cell, outcome.error))
            failed.add(outcome.cell.fingerprint)
            return False

        pool = WorkerPool(workers=self.jobs)
        loop = LeaseLoop(
            client.request, pool, self.name,
            offer=lambda: {
                cell.fingerprint: (self.suite.name, cell)
                for cell in cells
                if cell.fingerprint not in failed
            },
            sink=settle,
        )
        # Fork the workers before any thread or socket exists: the
        # children must not inherit a mid-flight connection or a lock
        # the heartbeat thread holds.
        pool.start()
        try:
            # Inside the try: an unreachable server must not leak the pool.
            loop.start()
            loop.run()
        finally:
            loop.stop()
            sink.close()
            pool.shutdown()
        report.skipped = (
            report.total_cells - report.executed - len(report.failures)
        )
        report.wall_clock_s = time.perf_counter() - start
        return report

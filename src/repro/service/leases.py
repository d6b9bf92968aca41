"""Elastic fleet scheduling: leases over the cell-fingerprint space.

Static ``--shard i/k`` partitioning assumes ``k`` healthy, equal
machines for the whole sweep — one lost worker strands its shard until
a human reruns it.  The lease model drops that assumption: workers
*register* with the server, *lease* pending cells one at a time under
short-lived leases, renew them from a background heartbeat thread, and
stream each completed cell back through the ordinary ``push`` verb
(push doubles as lease completion).  A lease whose worker stops
heartbeating expires and its fingerprint goes to whichever live worker
asks next — the robustness jump from "k machines" to "whatever shows
up".

Two halves live here:

:class:`LeaseTable`
    The server-side scheduler state: registered workers with their
    offers, heartbeat deadlines, active leases and the
    completed-fingerprint set, all under one lock and all on the
    **monotonic** clock (a wall-clock step must never mass-expire
    leases).  A worker sends its offer once, at ``register``, and the
    table reads it through a cursor that only moves forward, so a sweep
    of N cells costs O(N) in request bytes and in server CPU.  A
    worker is kept only while it may still lease: the grant that tells it
    it is done removes it, and a lost worker's offer is forgotten.
    Worker ids are unique across server restarts.  Expiry is lazy —
    checked at the top of every verb — so the table needs no
    background thread of its own.  Every lease event is reported
    through an optional callback, which is how the server turns
    scheduling into ``fleet_leases_total{fate}`` metrics without this
    module importing any observability code.

:class:`FleetWorker`
    The one executor that leases (``run <suite> --fleet host:port``):
    it registers the suite's cells, leases one each time its warm
    :class:`~repro.experiments.runner.WorkerPool` pulls one, and pushes
    every result back.  A replacement worker "resumes" a dead machine's
    sweep with no JSONL copying at all: the server never grants a
    completed fingerprint again.

Lease lifecycle fates (the ``fate`` label of ``fleet_leases_total``):

``granted``
    A pending fingerprint was handed to a worker.
``renewed``
    A heartbeat pushed a lease deadline out.
``expired``
    The deadline passed without a heartbeat; the fingerprint is pending
    again.
``released``
    The worker gave the fingerprint back (its cell failed), so another
    worker may try it.
``reassigned``
    A previously expired or released fingerprint was granted again —
    the recovery event the elastic-fleet smoke test asserts on.
``completed``
    A pushed record retired the lease.
"""

from __future__ import annotations

import itertools
import math
import secrets
import threading
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

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
    """One registered fleet worker: when it was last heard from, and its
    offer, read once through a cursor.  A lost worker's offer is
    forgotten, so its entry keeps only ``last_seen``, for the
    ``fleet_workers`` gauge, until the worker comes back."""

    last_seen: float  # monotonic
    #: The offered fingerprints in order, each once; ``None`` once the
    #: worker was lost and forgotten, so it must register again.
    offered: dict[str, None] | None
    #: Over ``offered``: the fingerprints no grant has passed yet.
    cursor: Iterator[str]
    #: Offered fingerprints whose lease expired or was released, to try
    #: before the cursor moves on; each is checked once.
    orphans: deque[str] = field(default_factory=deque)
    #: Fingerprints this worker failed: never granted to it again.
    released: set[str] = field(default_factory=set)

    def drop_offer(self) -> None:
        """Keep only ``last_seen``: the worker is told it is unknown, so
        it registers its offer again."""
        self.offered = None
        self.cursor = iter(())
        self.orphans.clear()
        self.released = set()


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
        # Fingerprints whose lease expired or was released and that no
        # one holds or completed since: granting one of these again is
        # the "reassigned" recovery event.
        self._orphaned: dict[str, None] = {}
        # A fresh prefix per table: an id from before a server restart is
        # unknown here, so its worker registers again instead of taking
        # over whichever new worker was handed the same number.
        self._epoch = secrets.token_hex(4)
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
            self._orphan(lease.fingerprint)
            self._event("expired", lease.age_s(now))

    def _orphan(self, fingerprint: str) -> None:
        """Put an unfinished fingerprint whose lease ended up for grants
        again, first to each worker that offered it and did not release
        it."""
        self._orphaned[fingerprint] = None
        for worker in self._workers.values():
            if worker.offered and self._mine(worker, fingerprint):
                worker.orphans.append(fingerprint)

    def _forget_lost(self, now: float) -> None:
        """Forget the offers of lost workers.  After the expiry sweep a
        lost worker holds no lease: its last grant or heartbeat set its
        ``last_seen`` and its leases' deadlines alike."""
        for worker in self._workers.values():
            if worker.offered is not None and not self._alive(worker, now):
                worker.drop_offer()

    def _known(self, worker_id: str) -> WorkerEntry | None:
        """The worker's entry, or ``None`` if it must register again.  A
        forgotten entry goes when its worker comes back, so the gauge
        counts that worker once, under its new id."""
        worker = self._workers.get(worker_id)
        if worker is not None and worker.offered is None:
            del self._workers[worker_id]
            return None
        return worker

    def _alive(self, worker: WorkerEntry, now: float) -> bool:
        return (now - worker.last_seen) <= self.lease_ttl_s

    def _mine(self, worker: WorkerEntry, fingerprint: str) -> bool:
        """Whether ``fingerprint`` is the worker's to run: offered by it
        and not released by it."""
        return fingerprint in worker.offered and fingerprint not in worker.released

    def _next(self, worker: WorkerEntry) -> str | None:
        """The next fingerprint the worker may lease, or ``None``.

        An expired or released fingerprint of its offer comes first, if
        no one took or completed it since, then the cursor moves past
        completed, leased and released ones to the first pending one.
        The cursor never goes back: what it passed was completed, or
        leased and so comes back through ``worker.orphans`` unless it
        completes.
        """
        while worker.orphans:
            fingerprint = worker.orphans.popleft()
            if fingerprint in self._orphaned and fingerprint not in worker.released:
                return fingerprint
        for fingerprint in worker.cursor:
            if (
                fingerprint not in self._completed
                and fingerprint not in self._leases
                and fingerprint not in worker.released
            ):
                return fingerprint
        return None

    def _done(self, worker: WorkerEntry) -> bool:
        """Whether every fingerprint of the worker's offer is completed,
        those it released aside.  Asked once ``_next`` found nothing: its
        cursor and orphans are spent, so what is left is leased, and only
        the active leases are scanned."""
        return not any(
            self._mine(worker, fingerprint) for fingerprint in self._leases
        )

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def register(self, fingerprints: Iterable[str]) -> dict[str, Any]:
        """Add a worker offering ``fingerprints``, the cells it would run
        in the order it would run them (a repeat counts once, at its
        first place).  Returns its id, unique across server restarts, and
        the fleet cadence.  Each registration also forgets the offers of
        lost workers."""
        offered = dict.fromkeys(fingerprints)
        now = self._clock()
        with self._lock:
            self._expire(now)
            self._forget_lost(now)
            self._worker_counter += 1
            worker_id = f"worker-{self._epoch}-{self._worker_counter}"
            self._workers[worker_id] = WorkerEntry(
                last_seen=now,
                offered=offered,
                cursor=iter(offered),
                orphans=deque(fp for fp in self._orphaned if fp in offered),
            )
            return {
                "worker_id": worker_id,
                "heartbeat_interval_s": self.heartbeat_interval_s,
            }

    def heartbeat(self, worker_id: str) -> dict[str, Any]:
        """Mark the worker live and renew all its leases.

        Answers ``known: false`` for an unknown or forgotten worker, not
        an error: the worker re-registers, which is how a fleet survives
        a collector restart (the lease table is in-memory state; the
        *results* are durable in the store).
        """
        now = self._clock()
        with self._lock:
            self._expire(now)
            worker = self._known(worker_id)
            if worker is None:
                return {"known": False}
            worker.last_seen = now
            for lease in self._leases.values():
                if lease.worker_id == worker_id:
                    lease.deadline = now + self.lease_ttl_s
                    self._event("renewed")
            return {"known": True}

    def grant(
        self, worker_id: str, release: Iterable[str] = ()
    ) -> dict[str, Any]:
        """Lease the worker the next pending fingerprint of its offer.

        ``release`` names fingerprints the worker failed: their leases
        end, other workers may take them, and this one is never granted
        them again.  Answers ``known: false`` for an unknown or forgotten
        worker.  ``granted`` holds at most one fingerprint.  ``done`` is
        true only when every offered fingerprint is completed, the
        released ones aside — an empty grant with ``done`` false means
        other workers hold the remainder, so the caller should ask again,
        not exit.  ``done`` never turns false again, so the grant that
        answers it removes the worker: a finished worker is neither alive
        nor lost, and a request under its id answers ``known: false``.
        """
        now = self._clock()
        with self._lock:
            self._expire(now)
            worker = self._known(worker_id)
            if worker is None:
                return {"known": False, "granted": [], "done": False}
            worker.last_seen = now
            for fingerprint in release:
                worker.released.add(fingerprint)
                lease = self._leases.get(fingerprint)
                if lease is not None and lease.worker_id == worker_id:
                    del self._leases[fingerprint]
                    self._orphan(fingerprint)
                    self._event("released", lease.age_s(now))
            fingerprint = self._next(worker)
            if fingerprint is None:
                done = self._done(worker)
                if done:
                    del self._workers[worker_id]
                return {"known": True, "granted": [], "done": done}
            self._leases[fingerprint] = Lease(
                fingerprint=fingerprint,
                worker_id=worker_id,
                granted_at=now,
                deadline=now + self.lease_ttl_s,
            )
            self._event("granted")
            if fingerprint in self._orphaned:
                del self._orphaned[fingerprint]
                self._event("reassigned")
            return {"known": True, "granted": [fingerprint], "done": False}

    def complete(self, fingerprint: str) -> None:
        """Mark a fingerprint done: retire its lease if one is active,
        and grant it to no worker again.

        Wired to the server's ingest of a verified record, so completion
        needs no verb of its own — and a record from any stream (a fleet
        push, a bare ``push``) informs the scheduler.
        """
        with self._lock:
            self._retire(fingerprint)
            self._completed.add(fingerprint)
            self._orphaned.pop(fingerprint, None)

    def retire(self, fingerprint: str) -> None:
        """Retire the fingerprint's lease, if one is active, but keep the
        fingerprint pending: the server's ingest of a record that did not
        verify.  The worker that held the lease is never granted it
        again; a worker that registers later is, as a local resume runs an
        unverified cell again."""
        with self._lock:
            lease = self._retire(fingerprint)
            holder = self._workers.get(lease.worker_id) if lease else None
            if holder is not None:
                holder.released.add(fingerprint)

    def _retire(self, fingerprint: str) -> Lease | None:
        """End the fingerprint's active lease, if any, as completed.
        Call with the lock held."""
        now = self._clock()
        self._expire(now)
        lease = self._leases.pop(fingerprint, None)
        if lease is not None:
            self._event("completed", lease.age_s(now))
        return lease

    def seed_completed(self, fingerprints: Iterable[str]) -> None:
        """Preload completed fingerprints from a restarted collector's
        store (verified records only — mirroring resume semantics)."""
        with self._lock:
            self._completed.update(fingerprints)

    # ------------------------------------------------------------------
    # introspection (metrics gauges)
    # ------------------------------------------------------------------
    def worker_counts(self) -> dict[str, int]:
        """The workers that may still lease: alive, or silent past the
        lease TTL (lost).  A finished worker was removed, so it is
        neither."""
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


class FleetWorker:
    """Pull-based sweep worker for ``run <suite> --fleet host:port``.

    Instead of computing a static shard, the worker registers the
    suite's cells with the server, then leases one cell each time its
    warm :class:`WorkerPool` of ``jobs`` processes pulls one.  A
    background thread heartbeats every ``heartbeat_interval_s``, the
    cadence the server hands out at registration, so a cell may outlive
    the lease TTL.  The worker appends each result to the local store
    and pushes it (push retires the lease).  A failed cell is *released*
    on the next lease request: another machine may still try it, this
    worker never leases it again, and local resume retries it next
    sweep, exactly like the static path.

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
        self.progress = progress
        self.pushed = 0
        #: The id the server assigned at the latest registration.
        self.worker_id: str | None = None
        self.heartbeat_interval_s = DEFAULT_HEARTBEAT_INTERVAL_S
        #: Answers one verb request; ``run`` points it at the server.
        self._request: Callable[[dict[str, Any]], dict[str, Any]] | None = None
        #: The cells this worker offers, by fingerprint; a failed cell
        #: leaves it.
        self._cells: dict[str, Cell] = {}
        #: Failed fingerprints not yet released to the server.
        self._released: list[str] = []
        self._stop = threading.Event()

    def run(self) -> SweepReport:
        """Lease, execute and stream until the suite is fleet-complete."""
        start = time.perf_counter()
        self._stop.clear()
        cells = self.suite.cells(
            smoke=self.smoke, sizes=self.sizes, seeds=self.seeds
        )
        self._cells = {cell.fingerprint: cell for cell in cells}
        report = SweepReport(
            suite=self.suite.name,
            total_cells=len(cells),
            skipped=0,
            executed=0,
            unverified=0,
        )
        # A bad endpoint fails here, before anything forks.
        client = ServiceClient(self.fleet, token=self.token)
        self._request = client.request
        sink = CollectorSink(client)

        def push(result: CellResult) -> None:
            # The recorder's progress hook: a push that fails raises out
            # of the lease loop and aborts the run.
            sink(result)
            self.pushed += 1
            if self.progress is not None:
                self.progress(result)

        record = make_recorder(self.store, report, push)
        pool = WorkerPool(workers=self.jobs)
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="fleet-heartbeat", daemon=True
        )
        # Fork the workers before any thread or socket exists: the
        # children must not inherit a mid-flight connection or a lock
        # the heartbeat thread holds.
        pool.start()
        try:
            # Inside the try: an unreachable server must not leak the pool.
            self._register()
            heartbeat.start()
            while True:
                first, done = self._lease()
                if first is not None:
                    with closing(self._sweep(pool, first)) as outcomes:
                        for outcome in outcomes:
                            if outcome.ok:
                                record(outcome.result)
                                continue
                            report.failures.append(
                                CellFailure(outcome.cell, outcome.error)
                            )
                            self._cells.pop(outcome.cell.fingerprint, None)
                            self._released.append(outcome.cell.fingerprint)
                elif done:
                    break
                else:
                    # Other workers hold what is left: ask again in half a
                    # beat, well inside the 2x-heartbeat TTL, so a holder
                    # that dies has its expired leases granted here.
                    self._stop.wait(self.heartbeat_interval_s / 2)
        finally:
            self._stop.set()
            if heartbeat.is_alive():
                heartbeat.join(timeout=self.heartbeat_interval_s * 2 + 1)
            sink.close()
            pool.shutdown()
        report.skipped = (
            report.total_cells - report.executed - len(report.failures)
        )
        report.wall_clock_s = time.perf_counter() - start
        return report

    def _register(self) -> None:
        """Offer the cells this worker may still run.  After a server
        restart this sends the offer again, the failed cells left out."""
        reply = self._request(
            {"op": "register", "fingerprints": list(self._cells)}
        )
        self.worker_id = reply["worker_id"]
        self.heartbeat_interval_s = float(reply["heartbeat_interval_s"])

    def _heartbeat_loop(self) -> None:
        """Renew this worker's leases every interval until stopped.

        It never registers: after a server restart the lease path does,
        on its next request, so one worker gets one new id.  A failed
        beat is swallowed: the lease path surfaces a real outage on its
        next request, and one missed beat inside the TTL costs nothing.
        """
        while not self._stop.wait(self.heartbeat_interval_s):
            try:
                self._request({"op": "heartbeat", "worker_id": self.worker_id})
            except Exception:  # noqa: BLE001 - transient by design
                pass

    def _lease(self) -> tuple[Cell | None, bool]:
        """Release the cells failed since the last request and lease one:
        the granted cell or ``None``, and whether the suite is complete."""
        release, self._released = self._released, []
        reply = self._request({
            "op": "lease", "worker_id": self.worker_id, "release": release,
        })
        if not reply["known"]:
            # The server restarted and forgot this worker: register again,
            # the failed cells left out of the offer, and ask at once under
            # the new id — completed work is durable in its store.
            self._register()
            reply = self._request({
                "op": "lease", "worker_id": self.worker_id, "release": [],
            })
        granted = reply["granted"]
        if not granted:
            return None, reply["done"]
        cell = self._cells.get(granted[0])
        if cell is None:
            raise ServiceError(
                f"the fleet server granted cell {granted[0]}, which worker "
                f"{self.worker_id} does not offer"
            )
        return cell, reply["done"]

    def _sweep(self, pool: WorkerPool, first: Cell) -> Iterator[CellOutcome]:
        """Run leased cells on the pool, streaming outcomes.

        The pool pulls the next cell as each outcome arrives, and each
        pull leases one more cell, so every pool process stays busy until
        nothing is leasable.  Should the pool itself break (a failed
        fork, say), every leased cell still without an outcome fails with
        the error.  A failed lease request is no cell's failure: it
        propagates.
        """
        running = {first.fingerprint: first}

        def pull() -> Cell | None:
            cell, _ = self._lease()
            if cell is not None:
                running[cell.fingerprint] = cell
            return cell

        cells = itertools.chain([first], iter(pull, None))
        try:
            with closing(pool.submit_sweep(self.suite.name, cells)) as outcomes:
                for outcome in outcomes:
                    running.pop(outcome.cell.fingerprint, None)
                    yield outcome
        except ServiceError:
            raise
        except Exception as error:  # noqa: BLE001 - fails the leased cells
            for cell in list(running.values()):
                yield CellOutcome(cell=cell, result=None, error=repr(error))

"""The distributed sweep service.

Six layers turn the single-machine experiment runner into a
multi-worker, multi-machine, resumable, mergeable, elastic sweep
platform:

* :class:`ShardSpec` — deterministic ``i/k`` partitioning of a
  suite's cells by fingerprint (:mod:`repro.experiments.shard`,
  re-exported here), so independent workers and machines run disjoint
  shards (``run --shard i/k``);
* :mod:`repro.service.pool` — :class:`WorkerPool`, warm worker processes
  reused across sweeps with batched cell submission, amortising process
  startup over many small cells;
* :mod:`repro.service.protocol` — the transport-neutral line-JSON wire
  protocol: :class:`Endpoint` addresses (Unix path or ``host:port``),
  the shared :class:`LineServer` listener (accept loops, per-connection
  threads, TCP token auth) that the daemon and the collector are verb
  tables on top of;
* :mod:`repro.service.daemon` / :mod:`repro.service.client` — a job
  queue speaking the protocol over a local socket and, with
  ``--listen``, over token-authenticated TCP (``serve`` / ``submit``
  subcommands), so many clients feed one long-lived pool; the ``report``
  verb serves rendered report bundles for finished jobs;
* :mod:`repro.service.collector` — :class:`ResultCollector`, the live
  fan-in: shard workers (``run --shard i/k --collector host:port``)
  stream each completed cell record over the wire into one
  fingerprint-deduplicated store that ``report`` consumes unchanged —
  the cross-machine replacement for after-the-fact file merging, which
  remains available via :func:`repro.experiments.store.merge_result_files`
  and shares its duplicate policy
  (:func:`repro.experiments.store.resolve_duplicate`);
* :mod:`repro.service.leases` — the elastic control plane:
  :class:`LeaseTable` tracks registered workers, heartbeats and
  per-fingerprint leases inside the collector (``register`` /
  ``heartbeat`` / ``lease`` / ``fleet_status`` verbs; a ``push``
  completes the cell's lease), and :class:`FleetWorker` is the pull
  side behind ``run <suite> --fleet host:port`` — workers lease batches
  instead of computing a static shard, dead workers' leases expire and
  are reassigned to survivors, and replacement workers resume from the
  collector's completed fingerprints.
"""

from repro.experiments.shard import ShardSpec, partition, shard_cells
from repro.service.client import (
    CollectorSink,
    ServiceClient,
    ServiceConnection,
    ServiceError,
    ServiceTransportError,
)
from repro.service.collector import ResultCollector
from repro.service.daemon import DEFAULT_SOCKET, Job, SweepDaemon
from repro.service.leases import (
    DEFAULT_HEARTBEAT_INTERVAL_S,
    DEFAULT_LEASE_BATCH,
    LEASE_FATES,
    FleetWorker,
    LeaseTable,
)
from repro.service.pool import (
    DEFAULT_BATCH_SIZE,
    CellOutcome,
    WorkerPool,
    batch_cells,
)
from repro.service.protocol import (
    AUTH_TOKEN_ENV,
    Endpoint,
    LineServer,
    ProtocolError,
    connect_endpoint,
    parse_endpoint,
)

__all__ = [
    "CollectorSink",
    "ServiceClient",
    "ServiceConnection",
    "ServiceError",
    "ServiceTransportError",
    "ResultCollector",
    "DEFAULT_SOCKET",
    "Job",
    "SweepDaemon",
    "DEFAULT_HEARTBEAT_INTERVAL_S",
    "DEFAULT_LEASE_BATCH",
    "LEASE_FATES",
    "FleetWorker",
    "LeaseTable",
    "DEFAULT_BATCH_SIZE",
    "CellOutcome",
    "WorkerPool",
    "batch_cells",
    "AUTH_TOKEN_ENV",
    "Endpoint",
    "LineServer",
    "ProtocolError",
    "connect_endpoint",
    "parse_endpoint",
    "ShardSpec",
    "partition",
    "shard_cells",
]

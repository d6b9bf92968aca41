"""The distributed sweep service.

Three layers turn the single-machine experiment runner
(:mod:`repro.experiments`: its warm
:class:`~repro.experiments.runner.WorkerPool`, which fleet workers run
cells on, and static ``run --shard i/k`` partitioning) into a
multi-worker, multi-machine, resumable, elastic sweep platform:

* :mod:`repro.service.protocol` — the transport-neutral line-JSON wire
  protocol: :class:`Endpoint` addresses (Unix path or ``host:port``),
  the :class:`LineServer` on one endpoint (one listener and its accept
  loop, per-connection threads, TCP token auth) that the server is a
  verb table on top of;
* :mod:`repro.service.collector` / :mod:`repro.service.client` — the
  one server role, :class:`ResultCollector` (``serve``): a
  fingerprint-deduplicated store that ``report`` consumes unchanged
  (its duplicate policy is
  :func:`repro.experiments.store.resolve_duplicate`, shared with
  :func:`repro.experiments.store.merge_result_files`), fed by fleet
  workers' pushes; and :class:`ServiceClient` for the verbs;
* :mod:`repro.service.leases` — the elastic control plane:
  :class:`LeaseTable` tracks registered workers, their offers,
  heartbeats and per-fingerprint leases inside the server
  (``register`` / ``heartbeat`` / ``lease`` verbs; any stored record
  retires the cell's lease, a verified one completes the cell), and
  :class:`FleetWorker` is the pull side behind ``run <suite> --fleet
  host:port`` — workers lease one cell each time their pool pulls one
  instead of computing a static shard,
  dead workers' leases expire and are reassigned to survivors, and
  replacement workers resume from the server's completed fingerprints.

``serve`` only collects; ``run`` is the one executor.  A sweep runs in
one process, as static ``--shard`` runs merged afterwards with
``merge``, or as live ``--fleet`` workers leasing from one server.
"""

from repro.service.client import (
    CollectorSink,
    ServiceClient,
    ServiceConnection,
    ServiceError,
    ServiceTransportError,
)
from repro.service.collector import DEFAULT_SOCKET, ResultCollector
from repro.service.leases import (
    DEFAULT_HEARTBEAT_INTERVAL_S,
    FleetWorker,
    LeaseTable,
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
    "DEFAULT_HEARTBEAT_INTERVAL_S",
    "FleetWorker",
    "LeaseTable",
    "AUTH_TOKEN_ENV",
    "Endpoint",
    "LineServer",
    "ProtocolError",
    "connect_endpoint",
    "parse_endpoint",
]

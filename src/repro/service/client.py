"""Client for the sweep server.

:class:`ServiceClient` wraps the protocol verbs as methods over either
transport — give it a Unix socket path or a ``host:port`` address
(:func:`repro.service.protocol.parse_endpoint` decides which).  Every
call opens a short-lived connection by default — connections are cheap,
and statelessness means a client never wedges the server by holding a
socket open.  :class:`CollectorSink`, the push stream of a ``--fleet``
worker, uses :meth:`ServiceClient.connection` to reuse one connection
for many requests instead.

Startup races are absorbed here: a connect refused or a missing socket
file retries with exponential backoff for up to
``DEFAULT_CONNECT_RETRY_S`` seconds before surfacing
:class:`ServiceError` — ``serve &`` followed immediately by ``run
<suite> --fleet`` works without hand-written sleep loops.

TCP requests carry the shared auth token (explicit ``token=`` or the
``REPRO_SERVICE_TOKEN`` environment variable); Unix-socket requests
need none.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path
from typing import Any

from repro.experiments.store import CellResult
from repro.service.protocol import (
    Endpoint,
    ProtocolError,
    ServiceError,
    ServiceTransportError,
    connect_endpoint,
    parse_endpoint,
    recv_message,
    resolve_token,
    send_message,
)

__all__ = [
    "ServiceError",
    "ServiceTransportError",
    "ServiceClient",
    "ServiceConnection",
    "CollectorSink",
]

#: Default budget for connect retries, and the backoff ladder's first rung.
DEFAULT_CONNECT_RETRY_S = 2.0
_FIRST_BACKOFF_S = 0.05

#: Connect errors worth retrying during a server startup race: nothing is
#: accepting yet (stale or half-initialised socket) or the socket file has
#: not been bound yet.  Anything else — a timeout, a reset mid-flight, an
#: unroutable host — fails immediately.
_RETRYABLE_CONNECT_ERRORS = (ConnectionRefusedError, FileNotFoundError)


class ServiceConnection:
    """One open connection issuing any number of request/response pairs."""

    def __init__(self, client: "ServiceClient", sock: socket.socket) -> None:
        self._client = client
        self._sock = sock
        self._reader = sock.makefile("rb")

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request on this connection and return its response."""
        try:
            send_message(self._sock, self._client._with_token(payload))
            response = recv_message(self._reader)
        except (OSError, ProtocolError) as error:  # incl. socket.timeout
            raise ServiceTransportError(
                f"request to the sweep service at {self._client.endpoint} "
                f"failed mid-flight ({error})"
            ) from None
        return self._client._check_response(response)

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceConnection":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


class ServiceClient:
    """Talk to a sweep server on either transport."""

    def __init__(
        self,
        endpoint: str | Path | Endpoint,
        timeout: float = 30.0,
        token: str | None = None,
    ) -> None:
        self.endpoint = parse_endpoint(endpoint)
        self.timeout = timeout
        self.token = resolve_token(token)
        # The module default is read here, when the client is built, so
        # patching it reaches every client built afterwards, the CLI's too.
        self.connect_retry_s = DEFAULT_CONNECT_RETRY_S

    def _with_token(self, payload: dict[str, Any]) -> dict[str, Any]:
        # Unix sockets are guarded by filesystem permissions; only TCP
        # requests need (and get) the shared token.
        if self.endpoint.is_tcp and self.token is not None:
            return {**payload, "token": self.token}
        return payload

    def _connect(self) -> socket.socket:
        """Connect, absorbing startup races with bounded backoff.

        A server that was just launched may not have bound (or begun
        accepting on) its socket yet: ``ConnectionRefusedError`` and
        ``FileNotFoundError`` retry with exponential backoff until the
        ``connect_retry_s`` budget runs out, then surface the usual
        "cannot reach" :class:`ServiceError`.
        """
        deadline = time.monotonic() + max(0.0, self.connect_retry_s)
        backoff = _FIRST_BACKOFF_S
        while True:
            try:
                return connect_endpoint(self.endpoint, self.timeout)
            except _RETRYABLE_CONNECT_ERRORS as error:
                now = time.monotonic()
                if now >= deadline:
                    raise ServiceTransportError(self._unreachable(error)) from None
                time.sleep(min(backoff, deadline - now))
                backoff *= 2
            except OSError as error:
                raise ServiceTransportError(self._unreachable(error)) from None

    def _unreachable(self, error: OSError) -> str:
        hint = (
            "is `python -m repro.experiments serve --listen` running there?"
            if self.endpoint.is_tcp
            else "is `python -m repro.experiments serve` running?"
        )
        return (
            f"cannot reach the sweep service at {self.endpoint} "
            f"({error}); {hint}"
        )

    def _check_response(self, response: dict[str, Any] | None) -> dict[str, Any]:
        # No response at all is a transport symptom (half-closed peer);
        # an explicit ok:false is an application answer over a healthy
        # connection — the two must raise distinguishably or streaming
        # callers tear down good connections to retry doomed requests.
        if response is None:
            raise ServiceTransportError(
                "the service closed the connection without answering"
            )
        if not response.get("ok"):
            raise ServiceError(response.get("error", "unknown service error"))
        return response

    def connection(self) -> ServiceConnection:
        """Open a persistent connection for many requests (streaming)."""
        return ServiceConnection(self, self._connect())

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request on a fresh connection and return the response."""
        with self.connection() as connection:
            return connection.request(payload)

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """The server's ``records`` and ``duplicates`` counts."""
        return self.request({"op": "status"})

    def report(self) -> dict[str, Any]:
        """A rendered report bundle over the server's whole store.

        The response carries ``render`` (the text report), ``json`` and
        ``csv`` (byte-for-byte what ``report --json`` / ``--csv`` would
        write over the store) and ``all_verified``.
        """
        return self.request({"op": "report"})

    def metrics(self) -> str:
        """The server's Prometheus-text metrics exposition.

        The returned string is scrape-ready (``repro.obs.parse_exposition``
        reads it, as does any Prometheus-compatible tool).
        """
        return self.request({"op": "metrics"})["metrics"]

    def shutdown(self) -> None:
        self.request({"op": "shutdown"})


class CollectorSink:
    """Stream :class:`CellResult` records to the server as they complete.

    A fleet worker's push path: calling the sink pushes one record over
    a persistent connection (opened lazily, reopened once per push on
    failure — a server restart costs one retry, not the sweep).  A push
    that still fails raises :class:`ServiceError`; the worker's local
    store already holds the record, so the caller can surface the error
    without losing work.
    """

    def __init__(self, client: ServiceClient) -> None:
        self.client = client
        self._connection: ServiceConnection | None = None

    def __call__(self, result: CellResult) -> None:
        self.push_record(result.to_record())

    def push_record(self, record: dict[str, Any]) -> None:
        payload = {"op": "push", "records": [record]}
        try:
            self._ensure_connection().request(payload)
        except ServiceTransportError:
            # One reconnect: the server may have restarted between
            # cells.  A second failure is a real outage and propagates.
            # Only *transport* failures retry — a server error response
            # (a rejected record) arrived over a healthy connection, so
            # tearing it down to re-push the same doomed record would
            # just double the rejection; it propagates immediately.
            self.close()
            self._ensure_connection().request(payload)

    def _ensure_connection(self) -> ServiceConnection:
        if self._connection is None:
            self._connection = self.client.connection()
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

"""The wire protocol of the sweep service: line-delimited JSON over a
stream socket — Unix-domain or TCP.

Each request and each response is exactly one JSON object on one
``\\n``-terminated line, so the protocol is trivially debuggable
(``socat - UNIX-CONNECT:experiments/service.sock`` — or
``socat - TCP:host:port`` — and type) and needs no framing beyond
``readline``.  Requests carry an ``op`` field naming the verb;
responses always carry ``ok`` (bool) and, when ``ok`` is false, an
``error`` string.

One connection may issue any number of requests; the server answers each
line with one line and closes when the client half-closes.  The framing
contract is transport-neutral — the conformance suite
(``tests/test_protocol_conformance.py``) pins it over both socket
families.

Transports and endpoints
------------------------
:func:`parse_endpoint` turns an address string into an :class:`Endpoint`:
``host:port`` (numeric port) means TCP, anything else is a Unix-socket
path.  A :class:`LineServer` serves one endpoint: it binds one listener,
makes every endpoint check as it binds, owns the accept loop, the
per-connection threads and the per-request token check, and dispatches
each decoded request to a handler callable.  The sweep server
(:class:`~repro.service.collector.ResultCollector`) is one verb table on
top of it.

Authentication
--------------
TCP crosses machine boundaries, so a TCP endpoint *requires* a shared
token (``--token`` or the :data:`AUTH_TOKEN_ENV` environment variable):
every request on it must carry a matching ``"token"`` field or it is
refused and the connection closed.  A Unix socket stays guarded by
filesystem permissions and needs no token.
"""

from __future__ import annotations

import hmac
import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.obs import MetricsRegistry

__all__ = [
    "AUTH_TOKEN_ENV",
    "MAX_LINE_BYTES",
    "MAX_SOCKET_PATH_BYTES",
    "Endpoint",
    "LineServer",
    "ProtocolError",
    "ServiceError",
    "ServiceTransportError",
    "check_unix_socket_path",
    "connect_endpoint",
    "error_response",
    "ok_response",
    "parse_endpoint",
    "recv_message",
    "resolve_token",
    "send_message",
    "unix_socket_is_live",
]

#: Upper bound on one protocol line.  Report bundles and registration
#: offers dominate; a 64 MiB line is ~100k cell records, far beyond a
#: sane single response.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Environment variable holding the shared TCP auth token; ``--token``
#: flags override it.
AUTH_TOKEN_ENV = "REPRO_SERVICE_TOKEN"

#: Portable ceiling on an ``AF_UNIX`` socket path, in bytes.  ``sun_path``
#: is a fixed-size buffer: 108 bytes on Linux, 104 on the BSDs / macOS,
#: both including the trailing NUL — 103 payload bytes fit everywhere.
#: ``bind`` past the limit fails with an opaque ``OSError``, so servers
#: check up front and name the offending path instead (deep CI tmpdirs
#: hit this routinely).
MAX_SOCKET_PATH_BYTES = 103


class ProtocolError(RuntimeError):
    """A malformed or oversized protocol line."""


class ServiceError(RuntimeError):
    """A service-level failure: the peer answered ``ok: false``, could not
    be reached, or a server could not come up on its endpoint."""


class ServiceTransportError(ServiceError):
    """The transport failed underneath a request: connect, send or
    receive died, or the peer closed without answering.

    Distinct from the base :class:`ServiceError` raised for an
    ``ok: false`` *response*: an error response arrives over a healthy
    connection, so retrying it on a fresh connection just repeats the
    same doomed request.  Streaming callers (``CollectorSink``)
    reconnect-and-retry on this subclass only and propagate server
    error responses untouched."""


def send_message(sock: socket.socket, payload: dict[str, Any]) -> None:
    """Serialise ``payload`` as one JSON line and send it whole."""
    line = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    sock.sendall(line.encode("utf-8"))


def recv_message(reader) -> dict[str, Any] | None:
    """Read one JSON line from a file-like reader; ``None`` on EOF.

    ``reader`` is a binary file object (``socket.makefile("rb")``); using
    the file layer gets buffered ``readline`` for free.
    """
    line = reader.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"protocol line exceeds {MAX_LINE_BYTES} bytes")
    try:
        payload = json.loads(line)
    except ValueError as error:
        # JSONDecodeError for syntax, UnicodeDecodeError for byte garbage
        # that is not even UTF-8 — both are ValueErrors, both malformed.
        raise ProtocolError(f"malformed protocol line: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("protocol messages must be JSON objects")
    return payload


def ok_response(**fields: Any) -> dict[str, Any]:
    return {"ok": True, **fields}


def error_response(message: str) -> dict[str, Any]:
    return {"ok": False, "error": message}


def resolve_token(token: str | None) -> str | None:
    """An explicit token, else the :data:`AUTH_TOKEN_ENV` variable, else None."""
    if token:
        return token
    return os.environ.get(AUTH_TOKEN_ENV) or None


# ----------------------------------------------------------------------
# endpoints: one address grammar for both transports
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Endpoint:
    """A parsed service address: a Unix-socket path or a TCP host/port."""

    kind: str  # "unix" | "tcp"
    path: str | None = None
    host: str | None = None
    port: int | None = None

    @property
    def is_tcp(self) -> bool:
        return self.kind == "tcp"

    def __str__(self) -> str:
        if self.is_tcp:
            host = f"[{self.host}]" if ":" in (self.host or "") else self.host
            return f"{host}:{self.port}"
        return str(self.path)


def parse_endpoint(text: str | Path | Endpoint) -> Endpoint:
    """Parse ``host:port`` as TCP, anything else as a Unix-socket path.

    The rule is syntactic and unambiguous: an address whose final
    ``:``-separated field is a valid port number (and that contains no
    path separator) is TCP — ``127.0.0.1:7919``, ``[::1]:7919``,
    ``sweeps.example.org:7919``.  Everything else — ``/tmp/svc.sock``,
    ``experiments/service.sock``, even ``weird:name`` with a non-numeric
    tail — is a filesystem path.
    """
    if isinstance(text, Endpoint):
        return text
    text = str(text)
    if not text:
        raise ValueError("empty service endpoint")
    if "/" not in text and ":" in text:
        host, _, port_text = text.rpartition(":")
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]
        if host and port_text.isdigit():
            port = int(port_text)
            if port > 65535:
                raise ValueError(f"TCP port out of range in endpoint {text!r}")
            return Endpoint(kind="tcp", host=host, port=port)
    return Endpoint(kind="unix", path=text)


def connect_endpoint(endpoint: Endpoint, timeout: float) -> socket.socket:
    """Open a connected stream socket to ``endpoint`` (either transport)."""
    if endpoint.is_tcp:
        return socket.create_connection((endpoint.host, endpoint.port), timeout)
    if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
        raise ServiceError("Unix-socket endpoints require a POSIX platform")
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(str(endpoint.path))
    except BaseException:
        sock.close()
        raise
    return sock


def check_unix_socket_path(path: str | Path) -> None:
    """Refuse an over-long ``AF_UNIX`` path with a clear, named error."""
    path_bytes = len(os.fsencode(str(path)))
    if path_bytes > MAX_SOCKET_PATH_BYTES:
        raise ServiceError(
            f"socket path is {path_bytes} bytes, over the "
            f"{MAX_SOCKET_PATH_BYTES}-byte AF_UNIX limit: "
            f"{path} — pass a shorter --listen path (e.g. under /tmp)"
        )


def unix_socket_is_live(path: str | Path) -> bool:
    """Whether something is accepting connections on the socket file."""
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.5)
    try:
        probe.connect(str(path))
    except OSError:
        return False
    else:
        return True
    finally:
        probe.close()


# ----------------------------------------------------------------------
# the shared listener: accept loop + per-connection request/response
# ----------------------------------------------------------------------

class LineServer:
    """Request/response server over the line protocol, on one endpoint.

    :meth:`bind` checks the endpoint and binds the one listener,
    :meth:`start` runs its accept thread, and each connection gets a
    thread of its own.  Every decoded request is passed to
    ``handler(request)`` which returns the response dict; handler
    exceptions become ``ok: false`` responses and the connection keeps
    serving.  ``close_after(request, response)`` (when given) lets the
    owner close a connection after a terminal verb such as ``shutdown``.

    On a TCP endpoint every request must carry a ``"token"`` field
    matching the server token (compared constant-time); the field is
    stripped before the handler sees the request.  On a Unix socket the
    file's permissions are the boundary and no token is checked.

    Every server self-instruments into ``registry`` (its own private
    :class:`~repro.obs.MetricsRegistry` when none is shared in): request
    counts and latency per verb, auth failures, malformed lines and
    connection churn, labelled by the server ``name``.  The ``verb``
    label is clamped to the ``verbs`` tuple the owner declares — any
    unknown ``op`` counts as ``"other"``, so an abusive client cannot
    mint unbounded label cardinality.
    """

    def __init__(
        self,
        handler: Callable[[dict[str, Any]], dict[str, Any]],
        token: str | None = None,
        name: str = "line-server",
        close_after: Callable[[dict[str, Any], dict[str, Any]], bool] | None = None,
        registry: MetricsRegistry | None = None,
        verbs: tuple[str, ...] = (),
    ) -> None:
        self.handler = handler
        self.token = token
        self.name = name
        self.close_after = close_after
        self.registry = registry if registry is not None else MetricsRegistry()
        self.verbs = tuple(verbs)
        #: The bound endpoint; ``None`` until :meth:`bind`.
        self.endpoint: Endpoint | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._requests_total = self.registry.counter(
            "service_requests_total",
            "Requests handled, by server, verb and outcome (ok/error).",
            ("server", "verb", "outcome"),
        )
        self._request_seconds = self.registry.histogram(
            "service_request_seconds",
            "Request handling latency in seconds, by server and verb.",
            ("server", "verb"),
        )
        self._auth_failures = self.registry.counter(
            "service_auth_failures_total",
            "TCP requests refused for a missing or wrong token.",
            ("server",),
        )
        self._malformed_lines = self.registry.counter(
            "service_malformed_lines_total",
            "Protocol lines that failed to parse as one JSON object.",
            ("server",),
        )
        self._connections_total = self.registry.counter(
            "service_connections_total",
            "Connections accepted, by server.",
            ("server",),
        )
        self._connections_active = self.registry.gauge(
            "service_connections_active",
            "Connections currently being served, by server.",
            ("server",),
        )

    def _verb_label(self, request: dict[str, Any]) -> str:
        op = request.get("op")
        return op if op in self.verbs else "other"

    # -- lifecycle ------------------------------------------------------
    def bind(self, endpoint: str | Path | Endpoint) -> Endpoint:
        """Check ``endpoint`` and bind the server's one listener on it.

        A Unix path reclaims a stale (dead) socket file; it raises
        :class:`ServiceError` when over-long and ``RuntimeError`` when a
        *live* server owns the file.  TCP raises :class:`ServiceError`
        without a token.  Returns the bound endpoint, with the port the
        kernel picked for ``host:0``.
        """
        if self._listener is not None:
            raise RuntimeError("server already bound")
        endpoint = parse_endpoint(endpoint)
        if endpoint.is_tcp:
            if not self.token:
                raise ServiceError(
                    "refusing to listen on TCP without an auth token — pass "
                    f"--token or set {AUTH_TOKEN_ENV}"
                )
            listener = socket.socket(
                socket.AF_INET6 if ":" in endpoint.host else socket.AF_INET
            )
            try:
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                listener.bind((endpoint.host, endpoint.port))
            except OSError as error:
                listener.close()
                raise ServiceError(f"cannot listen on {endpoint} ({error})") from None
            host, port = listener.getsockname()[:2]
            endpoint = Endpoint(kind="tcp", host=host, port=port)
        else:
            if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
                raise ServiceError("Unix-socket endpoints require a POSIX platform")
            path = Path(endpoint.path)
            check_unix_socket_path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                # A previous server that crashed leaves a stale socket file; a
                # *live* one would still answer, so probe before stealing.
                if unix_socket_is_live(path):
                    raise RuntimeError(f"another server is serving {path}")
                path.unlink()
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                listener.bind(str(path))
            except BaseException:
                listener.close()
                raise
        listener.listen(16)
        listener.settimeout(0.2)
        self._listener = listener
        self.endpoint = endpoint
        return endpoint

    def start(self) -> None:
        """Accept connections on the bound endpoint, on one thread."""
        if self._listener is None:
            raise RuntimeError("bind an endpoint before starting the server")
        if self._accept_thread is not None:
            raise RuntimeError("server already started")
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{self.name}-accept", daemon=True
        )
        self._accept_thread.start()

    def close(self) -> None:
        """Stop accepting, join the accept thread, release the socket.

        In-flight connection threads are daemonic and finish (or die with
        the process) on their own; only the listener is torn down here.
        Shutting a TCP listener down wakes its blocked ``accept`` at once.
        On Linux that does not wake a Unix listener's ``accept``, so one
        connection to the socket file wakes it instead; the accept timeout
        is the fallback where neither does.  Only a socket file this
        server bound is unlinked.
        """
        self._stop.set()
        listener, self._listener = self._listener, None
        if listener is None:
            return
        unix_path = None if self.endpoint.is_tcp else Path(self.endpoint.path)
        if self._accept_thread is not None:
            if unix_path is not None:
                try:
                    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as waker:
                        waker.settimeout(0.2)
                        waker.connect(str(unix_path))
                except OSError:
                    pass
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._accept_thread.join(timeout=10)
            self._accept_thread = None
        listener.close()
        if unix_path is not None:
            unix_path.unlink(missing_ok=True)

    # -- serving --------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stop.is_set():
            try:
                connection, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:  # the listener was shut down by close()
                break
            if self._stop.is_set():  # close()'s wake-up connection
                connection.close()
                break
            threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name=f"{self.name}-conn",
                daemon=True,
            ).start()

    def _authenticate(self, request: dict[str, Any]) -> bool:
        presented = request.pop("token", None)
        # Compare as bytes: compare_digest on str raises for non-ASCII,
        # which would let a perfectly matched non-ASCII token kill the
        # connection thread instead of authenticating.
        return (
            isinstance(presented, str)
            and self.token is not None
            and hmac.compare_digest(
                presented.encode("utf-8"), self.token.encode("utf-8")
            )
        )

    def _serve_connection(self, connection: socket.socket) -> None:
        requires_token = self.endpoint.is_tcp
        active = self._connections_active.labels(server=self.name)
        self._connections_total.labels(server=self.name).inc()
        active.inc()
        try:
            with connection, connection.makefile("rb") as reader:
                while True:
                    try:
                        request = recv_message(reader)
                    except ProtocolError as error:
                        self._malformed_lines.labels(server=self.name).inc()
                        try:
                            send_message(connection, error_response(str(error)))
                        except OSError:
                            pass
                        return
                    if request is None:
                        return
                    if requires_token and not self._authenticate(request):
                        self._auth_failures.labels(server=self.name).inc()
                        try:
                            send_message(connection, error_response(
                                "authentication failed: TCP requests must carry "
                                f"the shared token (set {AUTH_TOKEN_ENV} or pass "
                                "token=... to the client)"
                            ))
                        except OSError:
                            pass
                        return
                    request.pop("token", None)
                    verb = self._verb_label(request)
                    start = time.perf_counter()
                    try:
                        response = self.handler(request)
                    except Exception as error:  # noqa: BLE001 - keep serving
                        response = error_response(repr(error))
                    self._request_seconds.labels(
                        server=self.name, verb=verb
                    ).observe(time.perf_counter() - start)
                    self._requests_total.labels(
                        server=self.name,
                        verb=verb,
                        outcome="ok" if response.get("ok") else "error",
                    ).inc()
                    try:
                        send_message(connection, response)
                    except OSError:
                        return
                    if self.close_after is not None and self.close_after(request, response):
                        return
        finally:
            active.dec()

"""Protocol conformance/fuzz suite: the framing contract both transports
must satisfy.

Every test that talks to a live server runs twice — once over a
Unix-domain socket and once over token-authenticated TCP — against the
shared :class:`~repro.service.protocol.LineServer` with a trivial echo
handler, so what is pinned here is the *protocol layer* (one JSON object
per ``\\n``-terminated line, one response per request, error responses
for malformed input, per-request TCP auth), independent of any verb
table the sweep server puts on top.
"""

import io
import json
import socket
import threading
import time

import pytest

import repro.service.protocol as protocol
from repro.obs import parse_exposition
from repro.obs.metrics import sum_samples
from repro.service.protocol import (
    MAX_LINE_BYTES,
    Endpoint,
    LineServer,
    ProtocolError,
    ServiceError,
    connect_endpoint,
    error_response,
    ok_response,
    parse_endpoint,
    recv_message,
    send_message,
)

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="requires Unix-domain sockets"
)

TOKEN = "conformance-suite-token"


@pytest.fixture(params=["unix", "tcp"])
def transport(request):
    return request.param


@pytest.fixture()
def echo_server(transport, tmp_path):
    """A started LineServer echoing each request back, on one transport."""
    server = LineServer(
        lambda request: ok_response(echo=request),
        token=TOKEN,
        name="conformance",
        close_after=lambda request, _: request.get("op") == "bye",
    )
    endpoint = server.bind(listen_on(transport, tmp_path, "conformance.sock"))
    server.start()
    yield server, endpoint
    server.close()


def listen_on(transport, tmp_path, name):
    """The endpoint to bind for ``transport``: a socket file or a free port."""
    return tmp_path / name if transport == "unix" else "127.0.0.1:0"


def open_connection(endpoint):
    sock = connect_endpoint(endpoint, timeout=10)
    sock.settimeout(10)
    return sock


def framed(payload: dict, endpoint: Endpoint) -> bytes:
    """One authenticated request line for ``endpoint``'s transport."""
    if endpoint.is_tcp:
        payload = {**payload, "token": TOKEN}
    return json.dumps(payload).encode("utf-8") + b"\n"


class TestEndpointGrammar:
    """parse_endpoint: the one address grammar both roles share."""

    @pytest.mark.parametrize("text,host,port", [
        ("127.0.0.1:7919", "127.0.0.1", 7919),
        ("0.0.0.0:0", "0.0.0.0", 0),
        ("sweeps.example.org:65535", "sweeps.example.org", 65535),
        ("[::1]:7919", "::1", 7919),
    ])
    def test_tcp_addresses(self, text, host, port):
        endpoint = parse_endpoint(text)
        assert endpoint.is_tcp
        assert (endpoint.host, endpoint.port) == (host, port)

    @pytest.mark.parametrize("text", [
        "/tmp/svc.sock",
        "experiments/service.sock",
        "relative.sock",
        "weird:name",        # non-numeric tail → a (strange) filename
        "dir/with:colon/s",  # path separator wins over the colon
        ":123",              # no host → not a TCP address
    ])
    def test_everything_else_is_a_unix_path(self, text):
        endpoint = parse_endpoint(text)
        assert not endpoint.is_tcp
        assert endpoint.path == text

    def test_out_of_range_port_rejected(self):
        with pytest.raises(ValueError, match="port out of range"):
            parse_endpoint("host:70000")

    def test_empty_endpoint_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_endpoint("")

    def test_endpoint_passthrough_and_str_roundtrip(self):
        endpoint = parse_endpoint("127.0.0.1:7919")
        assert parse_endpoint(endpoint) is endpoint
        assert parse_endpoint(str(endpoint)) == endpoint
        bracketed = parse_endpoint("[::1]:7919")
        assert parse_endpoint(str(bracketed)) == bracketed


class TestRoundTrip:
    """Every verb shape round-trips as one line in, one line out."""

    @pytest.mark.parametrize("payload", [
        {"op": "ping"},
        {"op": "submit", "suite": "paper-claims", "smoke": True, "shard": "0/2"},
        {"op": "status", "job": "job-1"},
        {"op": "results", "job": "job-1"},
        {"op": "report", "job": "job-1"},
        {"op": "push", "records": [{"fingerprint": "ab" * 8, "nested": {"k": [1, None]}}]},
        {"op": "shutdown"},
        {"op": "ünïcode", "päyload": "∂x/∂t ≤ β·log²n"},
    ])
    def test_request_payload_reaches_handler_intact(self, echo_server, payload):
        _, endpoint = echo_server
        sock = open_connection(endpoint)
        try:
            sock.sendall(framed(payload, endpoint))
            with sock.makefile("rb") as reader:
                response = recv_message(reader)
        finally:
            sock.close()
        assert response["ok"] is True
        # The token (when any) is stripped before the handler runs: the
        # echo must be exactly the caller's payload, transport-independent.
        assert response["echo"] == payload

    def test_many_requests_one_connection_in_order(self, echo_server):
        _, endpoint = echo_server
        sock = open_connection(endpoint)
        try:
            with sock.makefile("rb") as reader:
                for index in range(20):
                    sock.sendall(framed({"op": "ping", "i": index}, endpoint))
                    assert recv_message(reader)["echo"]["i"] == index
        finally:
            sock.close()

    def test_pipelined_requests_each_get_one_response(self, echo_server):
        """Two lines sent in one write are two requests — framing is the
        newline, not the segment boundary."""
        _, endpoint = echo_server
        sock = open_connection(endpoint)
        try:
            sock.sendall(
                framed({"op": "ping", "i": 0}, endpoint)
                + framed({"op": "ping", "i": 1}, endpoint)
            )
            with sock.makefile("rb") as reader:
                assert recv_message(reader)["echo"]["i"] == 0
                assert recv_message(reader)["echo"]["i"] == 1
        finally:
            sock.close()

    def test_close_after_verb_half_closes_cleanly(self, echo_server):
        """After a terminal verb (the server's ``shutdown``), the response
        still arrives, then the server closes the connection."""
        _, endpoint = echo_server
        sock = open_connection(endpoint)
        try:
            sock.sendall(framed({"op": "bye"}, endpoint))
            with sock.makefile("rb") as reader:
                assert recv_message(reader)["ok"] is True
                assert recv_message(reader) is None  # EOF: connection closed
        finally:
            sock.close()


class TestPartialReads:
    """Framing must survive arbitrary write segmentation."""

    def test_byte_by_byte_request_still_parses(self, echo_server):
        _, endpoint = echo_server
        sock = open_connection(endpoint)
        try:
            for byte in framed({"op": "ping", "slow": True}, endpoint):
                sock.sendall(bytes([byte]))
                time.sleep(0.001)
            with sock.makefile("rb") as reader:
                response = recv_message(reader)
        finally:
            sock.close()
        assert response["echo"]["slow"] is True

    def test_request_split_mid_token_still_parses(self, echo_server):
        _, endpoint = echo_server
        line = framed({"op": "ping", "marker": "split-me"}, endpoint)
        sock = open_connection(endpoint)
        try:
            middle = len(line) // 2
            sock.sendall(line[:middle])
            time.sleep(0.05)
            sock.sendall(line[middle:])
            with sock.makefile("rb") as reader:
                response = recv_message(reader)
        finally:
            sock.close()
        assert response["echo"]["marker"] == "split-me"


class TestMalformedInput:
    """Garbage in → one error line out (or a clean close), never a hang."""

    @pytest.mark.parametrize("line,match", [
        (b"this is not json\n", "malformed"),
        (b'{"op": "ping",}\n', "malformed"),
        (b"\n", "malformed"),
        (b"\x00\xff\xfe\xfd\n", "malformed"),
        (b"[1, 2, 3]\n", "objects"),
        (b'"just a string"\n', "objects"),
        (b"42\n", "objects"),
        (b"null\n", "objects"),
    ])
    def test_bad_line_answered_with_error_and_close(self, echo_server, line, match):
        _, endpoint = echo_server
        sock = open_connection(endpoint)
        try:
            sock.sendall(line)
            with sock.makefile("rb") as reader:
                response = recv_message(reader)
                assert response["ok"] is False
                assert match in response["error"]
                # A framing error poisons the stream; the server closes
                # rather than resynchronise on guesswork.
                assert recv_message(reader) is None
        finally:
            sock.close()

    def test_truncated_json_at_eof_is_malformed(self, echo_server):
        """A client dying mid-line must not be mistaken for a request."""
        _, endpoint = echo_server
        sock = open_connection(endpoint)
        try:
            sock.sendall(b'{"op": "pi')  # no newline, then write half-close
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as reader:
                response = recv_message(reader)
        finally:
            sock.close()
        assert response["ok"] is False
        assert "malformed" in response["error"]

    def test_oversized_line_rejected(self, echo_server, monkeypatch):
        """A line past MAX_LINE_BYTES is refused without buffering it all."""
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
        _, endpoint = echo_server
        sock = open_connection(endpoint)
        try:
            sock.sendall(b'{"op": "ping", "pad": "' + b"x" * 8192 + b'"}\n')
            with sock.makefile("rb") as reader:
                response = recv_message(reader)
        finally:
            sock.close()
        assert response["ok"] is False
        assert "exceeds" in response["error"]

    def test_handler_exception_becomes_error_response(self, transport, tmp_path):
        def explosive(request):
            raise RuntimeError("handler blew up")

        server = LineServer(explosive, token=TOKEN, name="explosive")
        endpoint = server.bind(listen_on(transport, tmp_path, "explosive.sock"))
        server.start()
        try:
            sock = open_connection(endpoint)
            try:
                sock.sendall(framed({"op": "ping", "i": 1}, endpoint))
                # the connection survives a handler exception
                sock.sendall(framed({"op": "ping", "i": 2}, endpoint))
                with sock.makefile("rb") as reader:
                    first = recv_message(reader)
                    second = recv_message(reader)
            finally:
                sock.close()
        finally:
            server.close()
        for response in (first, second):
            assert response["ok"] is False
            assert "handler blew up" in response["error"]


class TestRecvMessageUnit:
    """The reader side of the contract, pinned without sockets."""

    def test_eof_is_none(self):
        assert recv_message(io.BytesIO(b"")) is None

    def test_exact_limit_line_accepted(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 64)
        padding = 64 - len('{"k": ""}\n')
        line = ('{"k": "' + "x" * padding + '"}\n').encode()
        assert len(line) == 64
        assert recv_message(io.BytesIO(line)) == {"k": "x" * padding}

    def test_one_past_limit_rejected(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 64)
        line = ('{"k": "' + "x" * 64 + '"}\n').encode()
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_message(io.BytesIO(line))

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="objects"):
            recv_message(io.BytesIO(b"[1, 2]\n"))

    def test_malformed_rejected(self):
        with pytest.raises(ProtocolError, match="malformed"):
            recv_message(io.BytesIO(b"{nope\n"))

    def test_send_message_is_one_line(self):
        class Sink:
            def __init__(self):
                self.data = b""

            def sendall(self, data):
                self.data += data

        sink = Sink()
        send_message(sink, {"op": "ping", "nested": {"a": [1, 2]}})
        assert sink.data.endswith(b"\n")
        assert sink.data.count(b"\n") == 1
        assert json.loads(sink.data) == {"op": "ping", "nested": {"a": [1, 2]}}


class TestInterleavedClients:
    def test_two_connections_interleaved(self, echo_server):
        """Requests alternating across two live connections never leak a
        response to the wrong client."""
        _, endpoint = echo_server
        sock_a, sock_b = open_connection(endpoint), open_connection(endpoint)
        try:
            with sock_a.makefile("rb") as reader_a, sock_b.makefile("rb") as reader_b:
                for round_index in range(5):
                    sock_a.sendall(framed({"who": "a", "i": round_index}, endpoint))
                    sock_b.sendall(framed({"who": "b", "i": round_index}, endpoint))
                    response_b = recv_message(reader_b)
                    response_a = recv_message(reader_a)
                    assert response_a["echo"] == {"who": "a", "i": round_index}
                    assert response_b["echo"] == {"who": "b", "i": round_index}
        finally:
            sock_a.close()
            sock_b.close()

    def test_concurrent_clients_each_see_their_own_echoes(self, echo_server):
        _, endpoint = echo_server
        errors = []

        def hammer(client_id):
            try:
                sock = open_connection(endpoint)
                try:
                    with sock.makefile("rb") as reader:
                        for index in range(25):
                            sock.sendall(
                                framed({"c": client_id, "i": index}, endpoint)
                            )
                            echo = recv_message(reader)["echo"]
                            assert echo == {"c": client_id, "i": index}
                finally:
                    sock.close()
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(repr(error))

        threads = [
            threading.Thread(target=hammer, args=(client_id,)) for client_id in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors


class TestAuthentication:
    """TCP requires the shared token per request; Unix sockets never do."""

    def test_unix_needs_no_token(self, tmp_path):
        server = LineServer(lambda r: ok_response(echo=r), token=TOKEN)
        endpoint = server.bind(tmp_path / "auth.sock")
        server.start()
        try:
            sock = open_connection(endpoint)
            try:
                sock.sendall(json.dumps({"op": "ping"}).encode() + b"\n")
                with sock.makefile("rb") as reader:
                    assert recv_message(reader)["ok"] is True
            finally:
                sock.close()
        finally:
            server.close()

    @pytest.mark.parametrize("request_payload", [
        {"op": "ping"},                        # token missing
        {"op": "ping", "token": "wrong"},      # token wrong
        {"op": "ping", "token": 12345},        # token not even a string
    ])
    def test_tcp_refuses_bad_token_and_closes(self, request_payload):
        server = LineServer(lambda r: ok_response(echo=r), token=TOKEN)
        endpoint = server.bind("127.0.0.1:0")
        server.start()
        try:
            sock = open_connection(endpoint)
            try:
                sock.sendall(json.dumps(request_payload).encode() + b"\n")
                with sock.makefile("rb") as reader:
                    response = recv_message(reader)
                    assert response["ok"] is False
                    assert "authentication failed" in response["error"]
                    assert recv_message(reader) is None  # connection closed
            finally:
                sock.close()
        finally:
            server.close()

    def test_tcp_accepts_good_token_and_strips_it(self):
        server = LineServer(lambda r: ok_response(echo=r), token=TOKEN)
        endpoint = server.bind("127.0.0.1:0")
        server.start()
        try:
            sock = open_connection(endpoint)
            try:
                sock.sendall(
                    json.dumps({"op": "ping", "token": TOKEN}).encode() + b"\n"
                )
                with sock.makefile("rb") as reader:
                    response = recv_message(reader)
            finally:
                sock.close()
        finally:
            server.close()
        assert response["ok"] is True
        assert "token" not in response["echo"]

    def test_non_ascii_token_authenticates(self):
        """Tokens are compared as UTF-8 bytes: a non-ASCII shared token
        must authenticate, not blow up hmac.compare_digest."""
        token = "tökén-∆"
        server = LineServer(lambda r: ok_response(echo=r), token=token)
        endpoint = server.bind("127.0.0.1:0")
        server.start()
        try:
            sock = open_connection(endpoint)
            try:
                sock.sendall(
                    json.dumps({"op": "ping", "token": token}).encode() + b"\n"
                )
                with sock.makefile("rb") as reader:
                    good = recv_message(reader)
            finally:
                sock.close()
            sock = open_connection(endpoint)
            try:
                sock.sendall(
                    json.dumps({"op": "ping", "token": "tökén-X"}).encode() + b"\n"
                )
                with sock.makefile("rb") as reader:
                    bad = recv_message(reader)
            finally:
                sock.close()
        finally:
            server.close()
        assert good["ok"] is True
        assert bad["ok"] is False and "authentication failed" in bad["error"]

    def test_tcp_listener_refused_without_token(self):
        server = LineServer(lambda r: ok_response())
        with pytest.raises(ServiceError, match="without an auth token"):
            server.bind("127.0.0.1:0")

    def test_error_names_the_env_var(self):
        server = LineServer(lambda r: ok_response())
        with pytest.raises(ServiceError, match="REPRO_SERVICE_TOKEN"):
            server.bind("127.0.0.1:0")


class TestClose:
    def test_unix_close_does_not_sit_out_the_accept_timeout(self, tmp_path):
        """On Linux, shutting a Unix listener down leaves its ``accept``
        blocked until the 0.2 s timeout; close() wakes it with one
        connection, which is not counted as a client's."""
        server = LineServer(lambda r: ok_response(echo=r), name="closing")
        path = tmp_path / "close.sock"
        endpoint = server.bind(path)
        server.start()
        sock = open_connection(endpoint)
        try:
            sock.sendall(json.dumps({"op": "ping"}).encode() + b"\n")
            with sock.makefile("rb") as reader:
                assert recv_message(reader)["ok"] is True
        finally:
            sock.close()
        began = time.monotonic()
        server.close()
        assert time.monotonic() - began < 0.1
        assert not path.exists()
        samples = parse_exposition(server.registry.render())
        assert sum_samples(samples, "service_connections_total", server="closing") == 1


class TestMetricsVerb:
    """The ``metrics`` verb round-trips valid Prometheus text on both
    transports, served by a real verb table (the collector's)."""

    @pytest.fixture()
    def collector(self, transport, tmp_path):
        from repro.service.collector import ResultCollector

        served = ResultCollector(
            out=tmp_path / "store",
            listen=listen_on(transport, tmp_path, "metrics.sock"),
            token=TOKEN,
        )
        served.start()
        yield served, served.endpoint
        served.close()

    def test_metrics_round_trip(self, collector):
        from repro.obs import parse_exposition

        _, endpoint = collector
        sock = open_connection(endpoint)
        try:
            with sock.makefile("rb") as reader:
                sock.sendall(framed({"op": "status"}, endpoint))
                assert recv_message(reader)["ok"] is True
                sock.sendall(framed({"op": "metrics"}, endpoint))
                response = recv_message(reader)
        finally:
            sock.close()
        assert response["ok"] is True
        text = response["metrics"]
        # Valid exposition: parses in full, and self-describes with
        # HELP/TYPE comment lines.
        samples = parse_exposition(text)
        assert "# HELP service_requests_total " in text
        assert "# TYPE service_request_seconds histogram" in text
        # The status request we just made is counted under its own verb
        # label.
        assert any(
            sample.name == "service_requests_total"
            and sample.label("verb") == "status"
            and sample.label("outcome") == "ok"
            and sample.value >= 1
            for sample in samples
        ), [s for s in samples if s.name == "service_requests_total"]

    def test_unknown_verbs_clamp_to_other(self, collector):
        from repro.obs import parse_exposition

        _, endpoint = collector
        sock = open_connection(endpoint)
        try:
            with sock.makefile("rb") as reader:
                sock.sendall(framed({"op": "mint-a-label-a"}, endpoint))
                assert recv_message(reader)["ok"] is False
                sock.sendall(framed({"op": "mint-a-label-b"}, endpoint))
                assert recv_message(reader)["ok"] is False
                sock.sendall(framed({"op": "metrics"}, endpoint))
                response = recv_message(reader)
        finally:
            sock.close()
        samples = parse_exposition(response["metrics"])
        verbs = {
            sample.label("verb")
            for sample in samples
            if sample.name == "service_requests_total"
        }
        # Arbitrary op strings must not mint label values.
        assert "mint-a-label-a" not in verbs
        assert "mint-a-label-b" not in verbs
        assert any(
            sample.name == "service_requests_total"
            and sample.label("verb") == "other"
            and sample.label("outcome") == "error"
            and sample.value == 2
            for sample in samples
        )

    def test_one_scrape_feeds_every_slo(self, collector):
        """A scrape off the wire is all the SLO evaluation reads: every
        objective gets a verdict from it and a fresh server burns none."""
        from repro.obs import evaluate_slos, parse_exposition
        from repro.obs.slo import DEFAULT_SLOS

        _, endpoint = collector
        sock = open_connection(endpoint)
        try:
            with sock.makefile("rb") as reader:
                sock.sendall(framed({"op": "metrics"}, endpoint))
                response = recv_message(reader)
        finally:
            sock.close()
        samples = parse_exposition(response["metrics"])
        results = evaluate_slos(samples)
        assert [r.name for r in results] == [s.name for s in DEFAULT_SLOS]
        assert all(r.ok for r in results), [r.detail for r in results]
        assert any(
            sample.name == "collector_store_records_at_start"
            and sample.value == 0
            for sample in samples
        )

    def test_tcp_requires_auth(self, tmp_path):
        from repro.service.collector import ResultCollector

        served = ResultCollector(
            out=tmp_path / "store", listen="127.0.0.1:0", token=TOKEN
        )
        served.start()
        try:
            sock = open_connection(served.endpoint)
            try:
                sock.sendall(json.dumps({"op": "metrics"}).encode() + b"\n")
                with sock.makefile("rb") as reader:
                    response = recv_message(reader)
                    assert response["ok"] is False
                    assert "authentication failed" in response["error"]
                    assert "metrics" not in response
                    assert recv_message(reader) is None
            finally:
                sock.close()
        finally:
            served.close()

class TestFleetVerbsConformance:
    """The fleet control-plane verbs (``register`` / ``heartbeat`` /
    ``lease``) speak the same one-line contract on both transports, with
    TCP auth and typed-parameter validation."""

    @pytest.fixture()
    def collector(self, transport, tmp_path):
        from repro.service.collector import ResultCollector

        served = ResultCollector(
            out=tmp_path / "store",
            listen=listen_on(transport, tmp_path, "fleet.sock"),
            token=TOKEN,
        )
        served.start()
        yield served, served.endpoint
        served.close()

    @staticmethod
    def ask(endpoint, payload):
        sock = open_connection(endpoint)
        try:
            with sock.makefile("rb") as reader:
                sock.sendall(framed(payload, endpoint))
                return recv_message(reader)
        finally:
            sock.close()

    def test_full_lifecycle_round_trips(self, collector):
        _, endpoint = collector
        registered = self.ask(
            endpoint, {"op": "register", "fingerprints": ["fp-a", "fp-b"]}
        )
        worker_id = registered["worker_id"]
        assert registered == {
            "ok": True, "worker_id": worker_id,
            "heartbeat_interval_s": registered["heartbeat_interval_s"],
        }
        assert registered["heartbeat_interval_s"] > 0

        beat = self.ask(endpoint, {"op": "heartbeat", "worker_id": worker_id})
        assert beat == {"ok": True, "known": True}

        lease = {"op": "lease", "worker_id": worker_id, "release": []}
        grant = self.ask(endpoint, lease)
        assert grant == {"ok": True, "known": True, "granted": ["fp-a"], "done": False}

        again = self.ask(endpoint, lease)
        assert again == {"ok": True, "known": True, "granted": ["fp-b"], "done": False}

    def test_unknown_ids_answer_known_false_not_error(self, collector):
        _, endpoint = collector
        beat = self.ask(endpoint, {"op": "heartbeat", "worker_id": "worker-9"})
        assert beat["ok"] is True and beat["known"] is False
        grant = self.ask(endpoint, {"op": "lease", "worker_id": "worker-9"})
        assert grant["ok"] is True and grant["known"] is False
        assert grant["granted"] == []

    @pytest.mark.parametrize("payload,match", [
        ({"op": "register"}, "fingerprints"),
        ({"op": "register", "worker": "w1"}, "fingerprints"),
        ({"op": "register", "fingerprints": {"fp": 1}}, "fingerprints"),
        ({"op": "register", "fingerprints": [""]}, "fingerprints"),
        # a string is iterable: taken as a list it would offer its characters
        ({"op": "register", "fingerprints": "fp-a"}, "fingerprints"),
        ({"op": "register", "fingerprints": ["fp-a", None]}, "fingerprints"),
        ({"op": "heartbeat"}, "worker_id"),
        ({"op": "heartbeat", "worker_id": None}, "worker_id"),
        ({"op": "heartbeat", "worker_id": ""}, "worker_id"),
        ({"op": "lease"}, "worker_id"),
        ({"op": "lease", "worker_id": ""}, "worker_id"),
        ({"op": "lease", "worker_id": "w", "release": [3]}, "release"),
        ({"op": "lease", "worker_id": "w", "release": "fp-a"}, "release"),
    ])
    def test_malformed_parameters_are_error_responses(
        self, collector, payload, match
    ):
        _, endpoint = collector
        response = self.ask(endpoint, payload)
        assert response["ok"] is False
        assert match in response["error"]

    @pytest.mark.parametrize("op", ["register", "heartbeat", "lease"])
    def test_tcp_requires_auth(self, tmp_path, op):
        from repro.service.collector import ResultCollector

        served = ResultCollector(
            out=tmp_path / "store", listen="127.0.0.1:0", token=TOKEN
        )
        served.start()
        try:
            sock = open_connection(served.endpoint)
            try:
                sock.sendall(json.dumps({"op": op}).encode() + b"\n")
                with sock.makefile("rb") as reader:
                    response = recv_message(reader)
                    assert response["ok"] is False
                    assert "authentication failed" in response["error"]
                    assert recv_message(reader) is None
            finally:
                sock.close()
        finally:
            served.close()

"""Sweep-server tests: ``submit`` and the local worker end to end over a
real Unix socket, shutdown and socket hygiene, protocol-level edge
cases, and the server's metrics."""

import json
import multiprocessing
import socket
import threading
import time

import pytest

from repro.experiments import ResultStore, ScenarioSpec, Suite, get_suite
from repro.experiments.cli import main
from repro.experiments.runner import run_cell
from repro.experiments.spec import ALGORITHMS, SUITES, AlgorithmFamily, register_algorithm
from repro.obs import parse_exposition
from repro.obs.metrics import sum_samples
from repro.service import ResultCollector, ServiceClient, ServiceError
from repro.service import client as client_module
from repro.service.protocol import (
    MAX_LINE_BYTES,
    MAX_SOCKET_PATH_BYTES,
    ProtocolError,
    recv_message,
)

from test_service_collector import push
from test_service_fleet import FakeClock, lease_fates
from test_service_pool import counter, dying_suite

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="requires Unix-domain sockets"
)

SMALL = Suite(
    name="_test-server-small",
    description="test suite: a handful of cheap measured cells",
    scenarios=(
        ScenarioSpec(
            name="mis/tree", generator="random-tree",
            algorithm="tree-mis", sizes=(24, 32), seeds=(1, 2),
        ),
        ScenarioSpec(
            name="edge/tree", generator="random-tree",
            algorithm="arb-edge-coloring", sizes=(24,), seeds=(1,),
        ),
    ),
)

#: Fork-inherited state of the held family below: set before the
#: server's pool forks.
_HOLD: dict = {}

#: How long a held cell waits to be released before it gives up.
HOLD_TIMEOUT_S = 30.0


def _wait_for_release(graph, generator, n):
    _HOLD["release"].wait(timeout=HOLD_TIMEOUT_S)
    return {"rounds": 0, "verified": True}


def held_suite(monkeypatch) -> Suite:
    """One cell that runs until the test sets ``_HOLD["release"]``.
    Call before the pool forks."""
    monkeypatch.setitem(_HOLD, "release", multiprocessing.Event())
    if "_test-hold" not in ALGORITHMS:
        register_algorithm(AlgorithmFamily(
            name="_test-hold", description="test family", kind="baseline",
            run=_wait_for_release,
        ))
    suite = Suite(
        name="_test-hold", description="test suite: one held cell",
        scenarios=(
            ScenarioSpec(
                name="hold", generator="random-tree", algorithm="_test-hold",
                sizes=(10,), seeds=(1,),
            ),
        ),
    )
    monkeypatch.setitem(SUITES, suite.name, suite)
    return suite


def wait_until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            pytest.fail("condition not reached in time")
        time.sleep(0.01)


@pytest.fixture()
def small(monkeypatch):
    monkeypatch.setitem(SUITES, SMALL.name, SMALL)
    return SMALL


@pytest.fixture()
def server(tmp_path):
    server = ResultCollector(
        out=tmp_path / "store", socket_path=tmp_path / "svc.sock", workers=2
    )
    server.start()
    yield server
    server.close()


@pytest.fixture()
def client(server):
    return ServiceClient(server.socket_path)


class TestSubmit:
    def test_status_reports_workers(self, client):
        response = client.status()
        assert response["ok"] is True
        assert response["workers"] == 2
        assert response["pending"] == 0

    def test_submit_wait_stores_every_cell(self, client, tmp_path):
        reply = client.submit("paper-claims", smoke=True)
        expected = len(get_suite("paper-claims").cells(smoke=True))
        assert reply["total_cells"] == expected and reply["skipped"] == 0
        assert len(reply["fingerprints"]) == expected
        status = client.wait(reply["fingerprints"], timeout=120)
        assert status["done"] and status["pending"] == 0
        assert status["completed"] == expected
        assert status["unverified"] == 0 and not status["failures"]
        # the server's store is a normal resumable store on disk
        assert len(ResultStore(tmp_path / "store").records()) == expected

    def test_resubmit_skips_stored_cells(self, client):
        first = client.submit("paper-claims", smoke=True)
        client.wait(first["fingerprints"], timeout=120)
        second = client.submit("paper-claims", smoke=True)
        assert first["fingerprints"]
        assert second["fingerprints"] == []
        assert second["skipped"] == second["total_cells"] == first["total_cells"]
        assert client.status(second["fingerprints"])["done"] is True

    def test_status_without_fingerprints_reports_counters(self, client, small):
        queued = client.submit(small.name)["fingerprints"]
        client.wait(queued, timeout=120)
        overview = client.status()
        assert overview["records"] == overview["accepted"] == len(queued)
        assert overview["pending"] == 0

    def test_submit_unknown_suite_fails_fast(self, client):
        with pytest.raises(ServiceError, match="unknown suite"):
            client.submit("no-such-suite")

    def test_submit_ignores_a_shard_field(self, small, client):
        """``submit`` shards nothing: a ``shard`` field is ignored like any
        unknown field, and the whole suite is queued."""
        reply = client.request({"op": "submit", "suite": small.name, "shard": "0/2"})
        assert reply["total_cells"] == len(reply["fingerprints"]) == len(small.cells())
        assert client.wait(reply["fingerprints"], timeout=120)["done"]

    def test_submit_ignores_an_engine_field(self, small, client, tmp_path):
        """The engine is not the sweep's to choose: an ``engine`` field
        is ignored like any unknown field, and every cell runs ``auto``."""
        reply = client.request({
            "op": "submit", "suite": small.name, "engine": "interpreted",
        })
        status = client.wait(reply["fingerprints"], timeout=120)
        assert status["completed"] == len(small.cells())
        assert not status["failures"]
        engines = {
            record["fingerprint"]: record["engine"]
            for record in ResultStore(tmp_path / "store").records()
        }
        assert engines == {
            cell.fingerprint: run_cell(small.name, cell).engine
            for cell in small.cells()
        }

    @pytest.mark.parametrize("field,value", [
        ("sizes", "24"),          # not a list at all
        ("sizes", {"n": 24}),
        ("sizes", [24, "big"]),   # an uncoercible element
        ("sizes", [True]),        # bools are not sizes
        ("sizes", [None]),
        ("seeds", 7),
        ("seeds", ["one"]),
        ("seeds", [1, False]),
        ("sizes", [2.5]),          # not truncated to 2
        ("seeds", [1.5]),
        ("sizes", [float("inf")]),  # JSON Infinity, which json.loads accepts
        ("seeds", [float("nan")]),
    ])
    def test_submit_bad_sizes_and_seeds_fail_fast(self, client, field, value):
        """Malformed sweep overrides are rejected at submit time with an
        error naming the field, and nothing is queued."""
        with pytest.raises(ServiceError, match=field):
            client.request({
                "op": "submit", "suite": "paper-claims", field: value,
            })
        assert client.status()["pending"] == 0

    @pytest.mark.parametrize("field,value", [
        ("smoke", "false"),         # a non-empty string, truthy to bool()
        ("smoke", 1),
        ("smoke", None),
        ("suite", ["lower-bound"]),  # unhashable: escaped get_suite as TypeError
        ("suite", ""),
        ("suite", 7),
    ])
    def test_submit_bad_smoke_and_suite_fail_fast(self, client, field, value):
        """``smoke`` takes only a JSON boolean and ``suite`` only a
        non-empty string; anything else is refused with an error naming
        the field before any cell is queued."""
        with pytest.raises(ServiceError, match=f"'{field}'"):
            client.request({"op": "submit", "suite": "lower-bound", field: value})
        assert client.status()["pending"] == 0

    def test_submit_coerces_numeric_size_and_seed_strings(self, client):
        reply = client.request({
            "op": "submit", "suite": "paper-claims", "smoke": True,
            "sizes": ["96", 128.0], "seeds": [1],
        })
        expected = get_suite("paper-claims").cells(
            smoke=True, sizes=(96, 128), seeds=(1,)
        )
        assert reply["fingerprints"] == [cell.fingerprint for cell in expected]
        status = client.wait(reply["fingerprints"], timeout=120)
        assert status["completed"] == len(expected) and not status["failures"]

    def test_unknown_op_and_malformed_fingerprints(self, client):
        for op in ("dance", "metrics_history", "ping"):
            with pytest.raises(ServiceError, match="unknown op") as excinfo:
                client.request({"op": op})
            assert "metrics/register" in str(excinfo.value)
        with pytest.raises(ServiceError, match="fingerprints"):
            client.request({"op": "status", "fingerprints": "fp"})

    def test_a_lost_worker_fails_its_cells_and_a_resubmit_heals(
        self, tmp_path, monkeypatch, capsys
    ):
        """A worker that dies mid-sweep costs the submission its in-flight
        cells, reported as failures, and ``submit --wait`` exits 1.  The
        warm pool heals: resubmitting runs exactly the failed cells."""
        suite = dying_suite(tmp_path, monkeypatch)
        monkeypatch.setitem(SUITES, suite.name, suite)
        submit = [
            "submit", suite.name, "--socket", str(tmp_path / "die.sock"),
            "--wait", "--timeout", "120",
        ]
        with ResultCollector(
            out=tmp_path / "store", socket_path=tmp_path / "die.sock", workers=2
        ):
            assert main(submit) == 1
            err = capsys.readouterr().err
            assert "FAILED cell die/tree" in err and "died mid-sweep" in err
            failed = err.count("FAILED cell")
            assert main(submit) == 0
            out = capsys.readouterr().out
        assert f"{len(suite.cells()) - failed} already stored, {failed} queued" in out
        assert len(ResultStore(tmp_path / "store")) == len(suite.cells())

    def test_submit_on_a_server_without_workers_names_the_fleet(self, tmp_path):
        with ResultCollector(out=tmp_path / "c", socket_path=tmp_path / "c.sock") as server:
            with pytest.raises(ServiceError, match="run <suite> --fleet"):
                ServiceClient(server.socket_path).submit("paper-claims", smoke=True)


class TestLocalWorker:
    def test_an_unwritable_store_fails_cells_and_the_server_keeps_serving(
        self, tmp_path, small
    ):
        """A store append that fails becomes a per-cell failure: the local
        worker survives it, so a second submission drains too."""
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        with ResultCollector(
            out=blocked / "sub", socket_path=tmp_path / "s.sock", workers=1
        ) as server:
            client = ServiceClient(server.socket_path)
            for _ in range(2):
                queued = client.submit(small.name)["fingerprints"]
                status = client.wait(queued, timeout=120)
                assert status["completed"] == 0
                assert len(status["failures"]) == len(queued) == len(small.cells())
                assert all("Error" in failure["error"] for failure in status["failures"])
            assert client.status()["records"] == 0
            fates = lease_fates(server)
            assert fates.held() == 0
            assert fates.count("released") == 2 * len(small.cells())

    def test_a_broken_pool_fails_cells_and_the_server_keeps_serving(
        self, server, client, small, monkeypatch
    ):
        """The pool itself raising (a failed fork, say) fails the leased
        cells with the error and releases their leases; the local worker
        lives on, so a later submission runs once the pool is back."""
        def broken(*args, **kwargs):
            raise OSError("fork failed")

        working = server.pool.submit_sweep
        monkeypatch.setattr(server.pool, "submit_sweep", broken)
        queued = client.submit(small.name)["fingerprints"]
        status = client.wait(queued, timeout=60)
        assert status["completed"] == 0
        assert len(status["failures"]) == len(queued) == len(small.cells())
        assert all("fork failed" in failure["error"] for failure in status["failures"])
        assert lease_fates(server).held() == 0
        monkeypatch.setattr(server.pool, "submit_sweep", working)
        status = client.wait(client.submit(small.name)["fingerprints"], timeout=120)
        assert status["completed"] == len(small.cells()) and not status["failures"]

    def test_a_remote_worker_and_the_local_worker_share_a_submission(
        self, tmp_path, small
    ):
        """Cells a fleet worker already holds are left to it, and its
        pushes retire them: every cell is stored once, by one of the two."""
        server = ResultCollector(
            out=tmp_path / "store", socket_path=tmp_path / "s.sock", workers=1,
            heartbeat_interval_s=0.2,
        )
        server.leases._clock = FakeClock()  # no lease ever expires
        universe = [cell.fingerprint for cell in small.cells()]
        with server:
            client = ServiceClient(server.socket_path)
            remote = client.register("remote")["worker_id"]
            held = [client.lease(remote, universe)["granted"][0] for _ in range(2)]
            assert client.submit(small.name)["fingerprints"] == universe
            wait_until(
                lambda: client.status(universe)["completed"] == len(universe) - 2
            )
            assert client.status(universe)["pending"] == 2
            for cell in small.cells():
                if cell.fingerprint in held:
                    push(client, [run_cell(small.name, cell).to_record()])
            status = client.wait(universe, timeout=60)
        assert status["completed"] == len(universe) and not status["failures"]
        # Every cell's lease completed: the remote's two by its pushes,
        # the rest by the local worker, which ran exactly those.
        assert lease_fates(server).count("completed") == len(universe)
        assert server.duplicates == 0
        assert counter(server, "pool_cells_executed_total") == len(universe) - 2
        assert len(server.store.path.read_text().splitlines()) == len(universe)

    def test_a_fleet_worker_shares_a_submitted_suite_without_duplicates(
        self, tmp_path, small
    ):
        from repro.service import FleetWorker

        with ResultCollector(
            out=tmp_path / "store", socket_path=tmp_path / "s.sock", workers=1
        ) as server:
            worker = FleetWorker(
                small, ResultStore(tmp_path / "remote"), str(server.socket_path),
                jobs=1, name="remote",
            )
            reports = []
            thread = threading.Thread(target=lambda: reports.append(worker.run()))
            thread.start()
            client = ServiceClient(server.socket_path)
            status = client.wait(client.submit(small.name)["fingerprints"], timeout=120)
            thread.join(timeout=120)
        total = len(small.cells())
        assert reports and reports[0].ok
        assert status["failures"] == []
        assert reports[0].executed + counter(server, "pool_cells_executed_total") == total
        assert server.duplicates == 0
        assert len(server.store.path.read_text().splitlines()) == total

    def test_resubmit_reruns_a_cell_stored_unverified(self, server, client, small):
        """A pushed unverified record completes the cell's lease; a
        submit queues the cell again, so it must become leasable again."""
        cell = small.cells()[0]
        unverified = run_cell(small.name, cell).to_record()
        unverified["verified"] = False
        push(client, [unverified])
        reply = client.submit(small.name)
        assert reply["skipped"] == 0
        assert cell.fingerprint in reply["fingerprints"]
        status = client.wait(reply["fingerprints"], timeout=120)
        assert status["completed"] == len(small.cells())
        assert status["unverified"] == 0 and not status["failures"]

    def test_concurrent_pushes_and_a_submit_retire_every_cell(self, tmp_path):
        """Fleet-style pushes race the local worker over one submission:
        whatever the interleaving, every cell is retired exactly once
        from the schedule and every append is counted."""
        import sys

        suite = get_suite("paper-claims")
        records = [
            run_cell(suite.name, cell).to_record() for cell in suite.cells(smoke=True)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ResultCollector(
                out=tmp_path / "store", socket_path=tmp_path / "s.sock", workers=2
            ) as server:
                client = ServiceClient(server.socket_path)

                def push_all(offset):
                    for record in records[offset:] + records[:offset]:
                        push(client, [record])

                pushers = [
                    threading.Thread(target=push_all, args=(offset,))
                    for offset in range(0, len(records), 5)
                ]
                for thread in pushers:
                    thread.start()
                queued = client.submit(suite.name, smoke=True)["fingerprints"]
                for thread in pushers:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in pushers)
                status = client.wait(queued, timeout=120)
                assert client.status()["pending"] == 0
        finally:
            sys.setswitchinterval(interval)
        # Scraped after close: a local cell retired by a push while it
        # ran still lands (as a duplicate) before the worker drains.
        samples = parse_exposition(server.registry.render())
        assert status["done"] and not status["failures"]
        assert lease_fates(server).held() == 0
        stored = ResultStore(tmp_path / "store")
        assert {r["fingerprint"] for r in stored.records()} == {
            r["fingerprint"] for r in records
        }
        lines = len(stored.path.read_text().splitlines())
        assert sum_samples(samples, "collector_records_ingested_total") == lines

    def test_a_local_cell_that_outlives_the_ttl_keeps_its_lease(
        self, tmp_path, monkeypatch
    ):
        """The local worker heartbeats its leases while a cell runs, so a
        cell may run for many TTLs without its lease expiring."""
        suite = held_suite(monkeypatch)
        clock = FakeClock()
        server = ResultCollector(
            out=tmp_path / "store", socket_path=tmp_path / "s.sock", workers=1,
            heartbeat_interval_s=0.05,
        )
        server.leases._clock = clock
        with server:
            client = ServiceClient(server.socket_path)
            queued = client.submit(suite.name)["fingerprints"]
            wait_until(lambda: lease_fates(server).held() == 1)
            for _ in range(5):  # 5 × 0.08 s of lease time: four TTLs
                clock.advance(0.08)
                renewed = lease_fates(server).count("renewed")
                # two beats after the advance: one read the advanced clock,
                # and each beat swept expired leases before renewing
                wait_until(lambda: lease_fates(server).count("renewed") > renewed + 1)
            assert lease_fates(server).count("expired") == 0
            _HOLD["release"].set()
            status = client.wait(queued, timeout=60)
        assert status["completed"] == 1 and not status["failures"]
        fates = lease_fates(server)
        assert fates.count("expired") == 0
        assert fates.count("completed") == 1


class TestShutdown:
    def test_shutdown_verb_stops_server(self, tmp_path, monkeypatch):
        server = ResultCollector(
            out=tmp_path / "store", socket_path=tmp_path / "s.sock", workers=1
        )
        server.start()
        monkeypatch.setattr(client_module, "DEFAULT_CONNECT_RETRY_S", 0.0)
        client = ServiceClient(server.socket_path)
        client.shutdown()
        server.close()
        assert not server.socket_path.exists()
        with pytest.raises(ServiceError, match="cannot reach"):
            client.status()

    def test_status_still_served_while_draining(self, server, client):
        """After shutdown is requested, submitted cells still run and
        clients keep polling status; only new submits are refused."""
        queued = client.submit("paper-claims", smoke=True)["fingerprints"]
        server.stop()
        status = client.wait(queued, timeout=120)  # polls status during drain
        assert status["completed"] == len(queued)
        with pytest.raises(ServiceError, match="shutting down"):
            client.submit("paper-claims", smoke=True)

    def test_unanswered_request_raises_service_error(self, tmp_path):
        """A server that accepts but never answers must surface a clean
        ServiceError, not a raw socket.timeout."""
        path = tmp_path / "mute.sock"
        mute = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        mute.bind(str(path))
        mute.listen(1)
        try:
            with pytest.raises(ServiceError, match="mid-flight"):
                ServiceClient(path, timeout=0.3).status()
        finally:
            mute.close()

    def test_garbage_reply_raises_service_error(self, tmp_path):
        """A foreign socket answering non-JSON must surface ServiceError."""
        path = tmp_path / "garbage.sock"
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(str(path))
        server.listen(1)

        def answer_garbage():
            connection, _ = server.accept()
            with connection:
                connection.recv(4096)
                connection.sendall(b"I am not JSON\n")

        thread = threading.Thread(target=answer_garbage, daemon=True)
        thread.start()
        try:
            with pytest.raises(ServiceError, match="mid-flight"):
                ServiceClient(path, timeout=5).status()
        finally:
            server.close()
            thread.join(timeout=5)

    def test_submit_reply_carries_the_plan(self, client, small):
        """The denominator is known before the first cell runs."""
        reply = client.submit(small.name)
        assert reply["total_cells"] == len(small.cells())
        status = client.status(reply["fingerprints"])
        assert status["pending"] + status["completed"] == reply["total_cells"]
        client.wait(reply["fingerprints"], timeout=120)

    def test_two_servers_cannot_share_a_socket(self, server, tmp_path):
        rival = ResultCollector(out=tmp_path / "rival", socket_path=server.socket_path)
        with pytest.raises(RuntimeError, match="another server"):
            rival.start()
        # A failed rival's cleanup must not sever the live server: it
        # never bound the socket, so it must not unlink it either.
        rival.close()
        assert server.socket_path.exists()
        assert ServiceClient(server.socket_path).status()["ok"] is True

    def test_stale_socket_file_is_reclaimed(self, tmp_path):
        path = tmp_path / "stale.sock"
        # a dead server's leftover socket file: bound once, never served
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(str(path))
        leftover.close()
        server = ResultCollector(out=tmp_path / "store", socket_path=path, workers=1)
        server.start()
        try:
            assert ServiceClient(path).status()["ok"] is True
        finally:
            server.close()


class TestSocketPathLimit:
    """AF_UNIX sun_path is a ~104-byte buffer; the server must refuse an
    over-long path with a clear error instead of an opaque bind OSError."""

    def test_long_socket_path_raises_service_error_naming_path(self, tmp_path):
        deep = tmp_path / ("d" * 40) / ("e" * 40) / ("f" * 40) / "svc.sock"
        server = ResultCollector(out=tmp_path / "store", socket_path=deep, workers=1)
        with pytest.raises(ServiceError) as excinfo:
            server.start()
        message = str(excinfo.value)
        assert "AF_UNIX" in message
        assert str(deep) in message
        assert "--socket" in message
        # The refusal happened before any resource was acquired: the pool
        # never forked, the directory was never created, and close() after
        # the failed start is a clean no-op.
        assert not server.pool.started
        assert not deep.parent.exists()
        server.close()

    def test_limit_is_not_hit_by_short_paths(self, tmp_path):
        path = tmp_path / "ok.sock"
        if len(str(path).encode()) > MAX_SOCKET_PATH_BYTES:
            pytest.skip("test tmpdir itself exceeds the AF_UNIX limit")
        server = ResultCollector(out=tmp_path / "store", socket_path=path, workers=1)
        server.start()
        try:
            assert ServiceClient(path).status()["ok"] is True
        finally:
            server.close()


class TestProtocol:
    def test_malformed_line_answered_with_error(self, server):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5)
        sock.connect(str(server.socket_path))
        try:
            sock.sendall(b"this is not json\n")
            with sock.makefile("rb") as reader:
                response = recv_message(reader)
        finally:
            sock.close()
        assert response["ok"] is False
        assert "malformed" in response["error"]

    def test_recv_rejects_non_object(self):
        import io

        with pytest.raises(ProtocolError, match="objects"):
            recv_message(io.BytesIO(b"[1, 2]\n"))

    def test_recv_rejects_oversized_line(self):
        import io

        blob = b"x" * (MAX_LINE_BYTES + 10)
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_message(io.BytesIO(blob + b"\n"))

    def test_one_connection_many_requests(self, server):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5)
        sock.connect(str(server.socket_path))
        try:
            with sock.makefile("rb") as reader:
                for _ in range(3):
                    sock.sendall(json.dumps({"op": "status"}).encode() + b"\n")
                    assert recv_message(reader)["ok"] is True
        finally:
            sock.close()


class TestObservability:
    def test_status_reports_rates(self, client, small):
        client.wait(client.submit(small.name)["fingerprints"], timeout=120)
        overview = client.status()
        assert overview["uptime_s"] > 0
        assert overview["pending"] == 0
        assert overview["records_per_s"] > 0

    def test_metrics_verb_covers_cells_pool_and_server(self, client):
        from repro.obs import parse_exposition
        from repro.obs.metrics import samples_named, sum_samples

        queued = client.submit("paper-claims", smoke=True)["fingerprints"]
        client.wait(queued, timeout=120)
        samples = parse_exposition(client.metrics())

        executed = len(get_suite("paper-claims").cells(smoke=True))
        assert sum_samples(samples, "collector_records_ingested_total") == executed
        # phase breakdowns cross the worker-process boundary on CellResult
        phases = {
            sample.label("phase")
            for sample in samples_named(samples, "cell_phase_seconds_count")
        }
        assert {"generate", "run", "verify"} <= phases
        assert sum_samples(samples, "collector_pending_cells") == 0
        assert sum_samples(samples, "pool_cells_executed_total") == executed
        submits = [
            sample
            for sample in samples_named(samples, "service_requests_total")
            if sample.label("verb") == "submit"
        ]
        assert submits and sum_samples(submits, "service_requests_total") == 1
        assert sum_samples(samples, "service_request_seconds_count") > 0

    def test_requests_are_counted_under_their_verb(self, client):
        """Each request is counted once under its own verb label, and
        nothing about the metrics path mutates server state."""
        from repro.obs import parse_exposition
        from repro.obs.metrics import samples_named

        client.status()
        client.status()
        samples = parse_exposition(client.metrics())
        counted = [
            sample.value
            for sample in samples_named(samples, "service_requests_total")
            if sample.label("verb") == "status" and sample.label("outcome") == "ok"
        ]
        assert counted == [2]

    def test_a_started_server_runs_no_scrape_thread(self, client):
        """Metrics are read one scrape at a time: nothing snapshots the
        registry in the background."""
        client.status()
        names = {thread.name for thread in threading.enumerate()}
        assert "local-worker" in names
        assert "scrape-history" not in names

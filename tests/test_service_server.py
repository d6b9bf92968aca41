"""Sweep-server tests over a real Unix socket: fleet workers sharing the
server's cells, shutdown and socket hygiene, protocol-level edge cases,
and the server's metrics."""

import json
import multiprocessing
import socket
import threading
from collections import Counter

import pytest

from repro.experiments import ResultStore, ScenarioSpec, Suite, get_suite
from repro.experiments.cli import main
from repro.experiments.runner import run_cell
from repro.experiments.spec import ALGORITHMS, SUITES, AlgorithmFamily, register_algorithm
from repro.obs import parse_exposition
from repro.obs.metrics import samples_named, sum_samples
from repro.service import FleetWorker, ResultCollector, ServiceClient, ServiceError
from repro.service import client as client_module
from repro.service.protocol import (
    MAX_LINE_BYTES,
    MAX_SOCKET_PATH_BYTES,
    ProtocolError,
    recv_message,
)

from test_service_collector import push
from test_service_fleet import FakeClock, lease, lease_fates, register
from test_service_pool import dying_suite

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

#: Shares SMALL's four MIS cells and adds one cell of its own.
OVERLAPPING = Suite(
    name="_test-server-overlap",
    description="test suite: SMALL's MIS cells plus one colouring cell",
    scenarios=(
        ScenarioSpec(
            name="mis/tree", generator="random-tree",
            algorithm="tree-mis", sizes=(24, 32), seeds=(1, 2),
        ),
        ScenarioSpec(
            name="deg+1/tree", generator="random-tree",
            algorithm="tree-deg+1-coloring", sizes=(24,), seeds=(1,),
        ),
    ),
)

#: Fork-inherited state of the held family below: set before the fleet
#: worker's pool forks.
_HOLD: dict = {}

#: How long a held cell waits to be released before it gives up.
HOLD_TIMEOUT_S = 30.0

#: How long a test waits on a condition before it fails.
WAIT_S = 60.0


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
    return Suite(
        name="_test-hold", description="test suite: one held cell",
        scenarios=(
            ScenarioSpec(
                name="hold", generator="random-tree", algorithm="_test-hold",
                sizes=(10,), seeds=(1,),
            ),
        ),
    )


class LeaseWatch:
    """Counts a server's lease events as they happen, so a test can block
    until a count is reached instead of polling."""

    def __init__(self, server: ResultCollector) -> None:
        self.counts: Counter = Counter()
        self._changed = threading.Condition()
        self._inner = server.leases._on_event
        server.leases._on_event = self

    def __call__(self, fate, age_s) -> None:
        self._inner(fate, age_s)
        with self._changed:
            self.counts[fate] += 1
            self._changed.notify_all()

    def wait_for(self, predicate) -> None:
        with self._changed:
            assert self._changed.wait_for(
                lambda: predicate(self.counts), timeout=WAIT_S
            ), dict(self.counts)


def fleet(suite, server, tmp_path, name="worker", **kwargs) -> FleetWorker:
    return FleetWorker(
        suite, ResultStore(tmp_path / name), str(server.endpoint), **kwargs
    )


def in_thread(worker: FleetWorker):
    """Start ``worker.run()`` on a thread; returns the thread and a list
    that receives the report."""
    reports = []
    thread = threading.Thread(target=lambda: reports.append(worker.run()))
    thread.start()
    return thread, reports


@pytest.fixture()
def server(tmp_path):
    server = ResultCollector(out=tmp_path / "store", listen=tmp_path / "svc.sock")
    server.start()
    yield server
    server.close()


@pytest.fixture()
def client(server):
    return ServiceClient(server.endpoint)


class TestFleetOnOneServer:
    def test_status_reports_records_and_duplicates(self, client):
        assert client.status() == {"ok": True, "records": 0, "duplicates": 0}

    def test_a_fleet_run_stores_every_cell(self, server, client, tmp_path):
        report = fleet(get_suite("paper-claims"), server, tmp_path, jobs=2,
                       smoke=True).run()
        expected = len(get_suite("paper-claims").cells(smoke=True))
        assert report.ok and report.executed == expected
        assert client.status() == {"ok": True, "records": expected, "duplicates": 0}
        # the server's store is a normal resumable store on disk
        assert len(ResultStore(tmp_path / "store").records()) == expected

    def test_a_second_run_executes_nothing(self, server, tmp_path):
        suite = get_suite("paper-claims")
        first = fleet(suite, server, tmp_path, "first", smoke=True).run()
        second = fleet(suite, server, tmp_path, "second", smoke=True).run()
        assert first.executed == first.total_cells
        assert second.executed == 0
        assert second.skipped == second.total_cells == first.total_cells

    def test_unknown_ops(self, client):
        for op in ("dance", "metrics_history", "ping", "submit"):
            with pytest.raises(ServiceError, match="unknown op") as excinfo:
                client.request({"op": op})
            assert "metrics/register" in str(excinfo.value)

    def test_two_workers_on_overlapping_suites_run_each_cell_once(
        self, server, client, tmp_path
    ):
        """Two fleet workers offering suites that share cells: every cell
        of the union runs once, on one of them, and none is stored
        twice."""
        workers = [
            fleet(SMALL, server, tmp_path, "small", jobs=1),
            fleet(OVERLAPPING, server, tmp_path, "overlap", jobs=1),
        ]
        runs = [in_thread(worker) for worker in workers]
        for thread, _ in runs:
            thread.join(timeout=WAIT_S)
        reports = [reports[0] for _, reports in runs]
        union = {
            cell.fingerprint for suite in (SMALL, OVERLAPPING) for cell in suite.cells()
        }
        assert len(union) == len(SMALL.cells()) + 1 < 2 * len(SMALL.cells())
        assert all(report.ok for report in reports)
        assert sum(report.executed for report in reports) == len(union)
        assert client.status() == {"ok": True, "records": len(union), "duplicates": 0}
        assert len(server.store.path.read_text().splitlines()) == len(union)

    def test_a_lost_worker_fails_its_cells_and_a_rerun_heals(
        self, server, tmp_path, monkeypatch, capsys
    ):
        """A pool process that dies mid-sweep costs the run its in-flight
        cells, reported as failures, and ``run --fleet`` exits 1; they
        were released, so a second run executes exactly those."""
        suite = dying_suite(tmp_path, monkeypatch)
        monkeypatch.setitem(SUITES, suite.name, suite)
        run = [
            "run", suite.name, "--jobs", "2", "--quiet",
            "--fleet", str(server.endpoint), "--out", str(tmp_path / "w"),
        ]
        assert main(run) == 1
        err = capsys.readouterr().err
        assert "FAILED cell die/tree" in err and "died mid-sweep" in err
        assert "released back to the fleet" in err
        failed = err.count("FAILED cell")
        assert main(run) == 0
        out = capsys.readouterr().out
        assert f", {failed} executed, 0 failed" in out
        assert len(ResultStore(tmp_path / "store")) == len(suite.cells())

    def test_cells_a_remote_worker_holds_are_left_to_it(self, tmp_path):
        """A fleet worker runs what no one else holds and waits for the
        rest: the remote's pushes retire its two cells, and every cell
        is stored once, by one of the two."""
        server = ResultCollector(
            out=tmp_path / "store", listen=tmp_path / "s.sock",
            heartbeat_interval_s=0.05,
        )
        server.leases._clock = FakeClock()  # no lease ever expires
        watch = LeaseWatch(server)
        universe = [cell.fingerprint for cell in SMALL.cells()]
        with server:
            client = ServiceClient(server.endpoint)
            remote = register(client, universe)
            held = [lease(client, remote)["granted"][0] for _ in range(2)]
            thread, reports = in_thread(fleet(SMALL, server, tmp_path, jobs=1))
            watch.wait_for(lambda counts: counts["completed"] == len(universe) - 2)
            for cell in SMALL.cells():
                if cell.fingerprint in held:
                    push(client, [run_cell(SMALL.name, cell).to_record()])
            thread.join(timeout=WAIT_S)
            status = client.status()
        assert reports and reports[0].ok
        assert reports[0].executed == len(universe) - 2
        assert reports[0].skipped == 2
        # Every cell's lease completed: the remote's two by its pushes,
        # the rest by the fleet worker, which ran exactly those.
        assert lease_fates(server).count("completed") == len(universe)
        assert status == {"ok": True, "records": len(universe), "duplicates": 0}

    def test_concurrent_pushes_and_a_fleet_worker_retire_every_cell(
        self, server, tmp_path
    ):
        """Pushes race a fleet worker over one suite: whatever the
        interleaving, every cell is retired from the schedule and every
        append is counted."""
        import sys

        suite = get_suite("paper-claims")
        records = [
            run_cell(suite.name, cell).to_record() for cell in suite.cells(smoke=True)
        ]
        client = ServiceClient(server.endpoint)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def push_all(offset):
                for record in records[offset:] + records[:offset]:
                    push(client, [record])

            pushers = [
                threading.Thread(target=push_all, args=(offset,))
                for offset in range(0, len(records), 5)
            ]
            for thread in pushers:
                thread.start()
            report = fleet(suite, server, tmp_path, jobs=2, smoke=True).run()
            for thread in pushers:
                thread.join(timeout=WAIT_S)
            assert not any(thread.is_alive() for thread in pushers)
        finally:
            sys.setswitchinterval(interval)
        samples = parse_exposition(server.registry.render())
        assert report.ok
        assert lease_fates(server).held() == 0
        stored = ResultStore(tmp_path / "store")
        assert {r["fingerprint"] for r in stored.records()} == {
            r["fingerprint"] for r in records
        }
        lines = len(stored.path.read_text().splitlines())
        assert sum_samples(samples, "collector_records_ingested_total") == lines

    def test_a_cell_that_outlives_the_ttl_keeps_its_lease(
        self, tmp_path, monkeypatch
    ):
        """The fleet worker heartbeats its leases while a cell runs, so a
        cell may run for many TTLs without its lease expiring."""
        suite = held_suite(monkeypatch)
        clock = FakeClock()
        server = ResultCollector(
            out=tmp_path / "store", listen=tmp_path / "s.sock",
            heartbeat_interval_s=0.05,
        )
        server.leases._clock = clock
        watch = LeaseWatch(server)
        with server:
            thread, reports = in_thread(fleet(suite, server, tmp_path, jobs=1))
            watch.wait_for(lambda counts: counts["granted"] == 1)
            for _ in range(5):  # 5 × 0.08 s of lease time: four TTLs
                clock.advance(0.08)
                renewed = watch.counts["renewed"]
                # two beats after the advance: one read the advanced
                # clock, and each beat swept expired leases before renewing
                watch.wait_for(lambda counts: counts["renewed"] > renewed + 1)
            assert watch.counts["expired"] == 0
            _HOLD["release"].set()
            thread.join(timeout=WAIT_S)
        assert reports and reports[0].ok and reports[0].executed == 1
        fates = lease_fates(server)
        assert fates.count("expired") == 0
        assert fates.count("completed") == 1


class TestShutdown:
    def test_shutdown_verb_stops_server(self, tmp_path, monkeypatch):
        server = ResultCollector(out=tmp_path / "store", listen=tmp_path / "s.sock")
        server.start()
        monkeypatch.setattr(client_module, "DEFAULT_CONNECT_RETRY_S", 0.0)
        client = ServiceClient(server.endpoint)
        client.shutdown()
        server.close()
        assert not (tmp_path / "s.sock").exists()
        with pytest.raises(ServiceError, match="cannot reach"):
            client.status()

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

    def test_two_servers_cannot_share_a_socket(self, server, tmp_path):
        rival = ResultCollector(out=tmp_path / "rival", listen=str(server.endpoint))
        with pytest.raises(RuntimeError, match="another server"):
            rival.start()
        # A failed rival's cleanup must not sever the live server: it
        # never bound the socket, so it must not unlink it either.
        rival.close()
        assert (tmp_path / "svc.sock").exists()
        assert ServiceClient(server.endpoint).status()["ok"] is True

    def test_stale_socket_file_is_reclaimed(self, tmp_path):
        path = tmp_path / "stale.sock"
        # a dead server's leftover socket file: bound once, never served
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(str(path))
        leftover.close()
        server = ResultCollector(out=tmp_path / "store", listen=path)
        server.start()
        try:
            assert ServiceClient(path).status()["ok"] is True
        finally:
            server.close()


    def test_a_store_that_fails_to_load_leaves_no_socket(self, tmp_path):
        """The server binds before it reads its store: a store it cannot
        read closes the listener again and unlinks the socket file."""
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "results.jsonl").write_text("not json\n{}\n")
        server = ResultCollector(out=tmp_path / "store", listen=tmp_path / "s.sock")
        with pytest.raises(ValueError, match="corrupt record on line 1"):
            server.start()
        assert not (tmp_path / "s.sock").exists()
        server.close()


class TestSocketPathLimit:
    """AF_UNIX sun_path is a ~104-byte buffer; the server must refuse an
    over-long path with a clear error instead of an opaque bind OSError."""

    def test_long_socket_path_raises_service_error_naming_path(self, tmp_path):
        deep = tmp_path / ("d" * 40) / ("e" * 40) / ("f" * 40) / "svc.sock"
        server = ResultCollector(out=tmp_path / "store", listen=deep)
        with pytest.raises(ServiceError) as excinfo:
            server.start()
        message = str(excinfo.value)
        assert "AF_UNIX" in message
        assert str(deep) in message
        assert "--listen" in message
        # The refusal happened before anything was bound: the directory
        # was never created, and close() after the failed start is a
        # clean no-op.
        assert not deep.parent.exists()
        server.close()

    def test_limit_is_not_hit_by_short_paths(self, tmp_path):
        path = tmp_path / "ok.sock"
        if len(str(path).encode()) > MAX_SOCKET_PATH_BYTES:
            pytest.skip("test tmpdir itself exceeds the AF_UNIX limit")
        server = ResultCollector(out=tmp_path / "store", listen=path)
        server.start()
        try:
            assert ServiceClient(path).status()["ok"] is True
        finally:
            server.close()


class TestProtocol:
    def test_malformed_line_answered_with_error(self, server):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5)
        sock.connect(str(server.endpoint))
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
        sock.connect(str(server.endpoint))
        try:
            with sock.makefile("rb") as reader:
                for _ in range(3):
                    sock.sendall(json.dumps({"op": "status"}).encode() + b"\n")
                    assert recv_message(reader)["ok"] is True
        finally:
            sock.close()


class TestObservability:
    def test_metrics_verb_covers_cells_leases_and_server(
        self, server, client, tmp_path
    ):
        fleet(get_suite("paper-claims"), server, tmp_path, jobs=2, smoke=True).run()
        samples = parse_exposition(client.metrics())

        executed = len(get_suite("paper-claims").cells(smoke=True))
        assert sum_samples(samples, "collector_records_ingested_total") == executed
        assert sum_samples(samples, "collector_uptime_seconds") > 0
        # phase breakdowns cross the worker-process boundary on CellResult
        phases = {
            sample.label("phase")
            for sample in samples_named(samples, "cell_phase_seconds_count")
        }
        assert {"generate", "run", "verify"} <= phases
        assert sum_samples(samples, "fleet_leases_total", fate="completed") == executed
        assert not samples_named(samples, "collector_pending_cells")
        assert not [s for s in samples if s.name.startswith("pool_")]
        registers = [
            sample
            for sample in samples_named(samples, "service_requests_total")
            if sample.label("verb") == "register"
        ]
        assert registers and sum_samples(registers, "service_requests_total") == 1
        assert sum_samples(samples, "service_request_seconds_count") > 0

    def test_requests_are_counted_under_their_verb(self, client):
        """Each request is counted once under its own verb label, and
        nothing about the metrics path mutates server state."""
        client.status()
        client.status()
        samples = parse_exposition(client.metrics())
        counted = [
            sample.value
            for sample in samples_named(samples, "service_requests_total")
            if sample.label("verb") == "status" and sample.label("outcome") == "ok"
        ]
        assert counted == [2]

    def test_a_started_server_runs_no_worker_or_scrape_thread(self, client):
        """The server computes nothing and reads metrics one scrape at a
        time: no local worker, nothing snapshotting in the background."""
        client.status()
        names = {thread.name for thread in threading.enumerate()}
        assert "local-worker" not in names
        assert "scrape-history" not in names

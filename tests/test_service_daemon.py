"""Daemon/client tests: the line-JSON protocol verbs end to end over a
real Unix socket, plus protocol-level edge cases."""

import json
import socket
import time

import pytest

from repro.experiments import ResultStore, get_suite, register_suite
from repro.experiments.cli import main
from repro.experiments.spec import SUITES
from repro.service import ServiceClient, ServiceError, SweepDaemon
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    recv_message,
)

from test_service_pool import dying_suite

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="requires Unix-domain sockets"
)


@pytest.fixture()
def daemon(tmp_path):
    daemon = SweepDaemon(socket_path=tmp_path / "svc.sock", workers=2)
    daemon.start()
    yield daemon
    daemon.close()


@pytest.fixture()
def client(daemon):
    return ServiceClient(daemon.socket_path)


class TestVerbs:
    def test_ping_reports_pool(self, client):
        response = client.ping()
        assert response["ok"] is True
        assert response["pool"]["workers"] == 2
        assert response["jobs"] == 0

    def test_submit_wait_results(self, client, tmp_path):
        out = tmp_path / "store"
        job = client.submit("paper-claims", smoke=True, out=str(out))
        status = client.wait(job, timeout=120)
        assert status["state"] == "done"
        expected = len(get_suite("paper-claims").cells(smoke=True))
        assert status["executed"] == expected
        assert status["unverified"] == 0 and not status["failures"]
        records = client.results(job)
        assert len(records) == expected
        # the daemon's store is a normal resumable store on disk
        assert len(ResultStore(out).records()) == expected

    def test_submitted_jobs_resume_against_store(self, client, tmp_path):
        out = str(tmp_path / "store")
        first = client.wait(client.submit("paper-claims", smoke=True, out=out))
        second = client.wait(client.submit("paper-claims", smoke=True, out=out))
        assert first["executed"] > 0
        assert second["executed"] == 0
        assert second["skipped"] == second["total_cells"] == first["executed"]

    def test_sharded_submit(self, client, tmp_path):
        jobs = [
            client.submit(
                "paper-claims", smoke=True, shard=f"{index}/2",
                out=str(tmp_path / f"s{index}"),
            )
            for index in range(2)
        ]
        statuses = [client.wait(job) for job in jobs]
        assert all(status["state"] == "done" for status in statuses)
        total = sum(status["executed"] for status in statuses)
        assert total == len(get_suite("paper-claims").cells(smoke=True))

    def test_status_without_job_lists_all(self, client, tmp_path):
        job = client.submit("paper-claims", smoke=True, out=str(tmp_path / "x"))
        client.wait(job)
        overview = client.status()
        assert [entry["id"] for entry in overview["jobs"]] == [job]
        assert overview["pool"]["sweeps_served"] >= 1

    def test_submit_unknown_suite_fails_fast(self, client):
        with pytest.raises(ServiceError, match="unknown suite"):
            client.submit("no-such-suite")

    def test_submit_bad_shard_fails_fast(self, client):
        with pytest.raises(ServiceError, match="shard"):
            client.submit("paper-claims", shard="2/2")

    def test_submit_bad_engine_fails_fast(self, client):
        with pytest.raises(ServiceError, match="unknown engine"):
            client.submit("paper-claims", engine="warp")

    @pytest.mark.parametrize("field,value", [
        ("sizes", "24"),          # not a list at all
        ("sizes", {"n": 24}),
        ("sizes", [24, "big"]),   # an uncoercible element
        ("sizes", [True]),        # bools are not sizes
        ("sizes", [None]),
        ("seeds", 7),
        ("seeds", ["one"]),
        ("seeds", [1, False]),
    ])
    def test_submit_bad_sizes_and_seeds_fail_fast(self, client, field, value):
        """Malformed sweep overrides are rejected at submit time with an
        error naming the field — not accepted into the queue to fail
        minutes later inside the job runner."""
        with pytest.raises(ServiceError, match=field):
            client.request({
                "op": "submit", "suite": "paper-claims", field: value,
            })
        assert client.status()["jobs"] == []

    def test_submit_coerces_numeric_size_and_seed_strings(self, client, tmp_path):
        job = client.request({
            "op": "submit", "suite": "paper-claims", "smoke": True,
            "sizes": ["96", 128.0], "seeds": [1],
            "out": str(tmp_path / "coerced"),
        })["job"]
        status = client.wait(job, timeout=120)
        assert status["state"] == "done"
        assert status["sizes"] == [96, 128]
        assert status["seeds"] == [1]

    def test_describe_hands_out_a_snapshot_not_the_live_list(self):
        from repro.service.daemon import Job

        job = Job(id="job-1", suite="paper-claims")
        job.failures.append({"scenario": "s", "n": 1, "seed": 1, "error": "x"})
        snapshot = job.describe()
        snapshot["failures"].append({"scenario": "intruder"})
        assert len(job.failures) == 1
        assert len(job.describe()["failures"]) == 1

    def test_submit_with_engine_threads_through_to_records(self, client, tmp_path):
        out = tmp_path / "store"
        job = client.submit(
            "paper-claims", smoke=True, out=str(out), engine="interpreted"
        )
        status = client.wait(job, timeout=120)
        assert status["state"] == "done"
        assert status["engine"] == "interpreted"
        records = client.results(job)
        assert records
        # analytic prediction cells run no engine at all (engine None);
        # every measured cell must carry the forced backend
        measured = [r for r in records if r["engine"] is not None]
        assert measured
        assert all(record["engine"] == "interpreted" for record in measured)

    def test_unknown_job_and_unknown_op(self, client):
        with pytest.raises(ServiceError, match="unknown job"):
            client.status("job-999")
        with pytest.raises(ServiceError, match="unknown op"):
            client.request({"op": "dance"})

    def test_failed_job_surfaces_error(self, client, tmp_path):
        # An unwritable store directory makes the job itself fail.
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        job = client.submit(
            "paper-claims", smoke=True, out=str(blocked / "sub")
        )
        status = client.wait(job)
        assert status["state"] == "failed"
        assert status["error"]

    def test_a_job_that_loses_a_worker_ends_done_with_failures(
        self, tmp_path, monkeypatch, capsys
    ):
        """A worker that dies mid-job costs the job its in-flight cells,
        listed under ``failures``; the job still ends ``done`` and
        ``submit --wait`` exits 1.  The warm pool heals: the next job
        completes the suite."""
        suite = dying_suite(tmp_path, monkeypatch)
        if suite.name not in SUITES:
            register_suite(suite)
        submit = [
            "submit", suite.name, "--socket", str(tmp_path / "die.sock"),
            "--out", str(tmp_path / "store"), "--wait", "--timeout", "120",
        ]
        with SweepDaemon(socket_path=tmp_path / "die.sock", workers=2) as daemon:
            assert main(submit) == 1
            assert "FAILED cell die/tree" in capsys.readouterr().err
            assert main(submit) == 0
            first, second = ServiceClient(daemon.socket_path).status()["jobs"]
        assert first["state"] == "done" and first["error"] is None
        assert first["failures"]
        assert "died mid-sweep" in first["failures"][0]["error"]
        assert first["executed"] + len(first["failures"]) == first["total_cells"]
        assert second["executed"] == len(first["failures"])
        assert len(ResultStore(tmp_path / "store")) == first["total_cells"]


class TestBoundedMemory:
    def test_results_verb_reports_store_and_truncation_flag(self, client, tmp_path):
        out = tmp_path / "store"
        job = client.submit("paper-claims", smoke=True, out=str(out))
        client.wait(job)
        response = client.request({"op": "results", "job": job})
        assert response["truncated"] is False
        assert response["store"] == str(out / "results.jsonl")

    def test_finished_jobs_are_evicted_beyond_cap(self, daemon, client, tmp_path, monkeypatch):
        import repro.service.daemon as daemon_module

        monkeypatch.setattr(daemon_module, "MAX_FINISHED_JOBS", 1)
        out = str(tmp_path / "store")
        jobs = []
        for _ in range(3):
            job = client.submit("paper-claims", smoke=True, out=out)
            client.wait(job)
            jobs.append(job)
        # a fourth submit triggers eviction of all but the newest finished job
        jobs.append(client.submit("paper-claims", smoke=True, out=out))
        client.wait(jobs[-1])
        ids = {entry["id"] for entry in client.status()["jobs"]}
        assert jobs[-1] in ids
        assert jobs[0] not in ids

    def test_per_job_record_cap_sets_truncated(self, daemon, client, tmp_path, monkeypatch):
        import repro.service.daemon as daemon_module

        monkeypatch.setattr(daemon_module, "MAX_RESULT_RECORDS_IN_MEMORY", 5)
        job = client.submit("paper-claims", smoke=True, out=str(tmp_path / "s"))
        status = client.wait(job)
        response = client.request({"op": "results", "job": job})
        assert response["truncated"] is True
        assert len(response["records"]) == 5
        # the on-disk store still has everything
        assert status["executed"] == len(
            ResultStore(tmp_path / "s").records()
        )


class TestShutdown:
    def test_shutdown_verb_stops_daemon(self, tmp_path):
        daemon = SweepDaemon(socket_path=tmp_path / "s.sock", workers=1)
        daemon.start()
        client = ServiceClient(daemon.socket_path)
        client.shutdown()
        daemon.close()
        assert not daemon.socket_path.exists()
        with pytest.raises(ServiceError, match="cannot reach"):
            client.ping()

    def test_status_still_served_while_draining(self, daemon, client, tmp_path):
        """After shutdown is requested, queued jobs finish and clients can
        keep polling status/results for them; only new submits are refused."""
        job = client.submit("paper-claims", smoke=True, out=str(tmp_path / "s"))
        daemon.stop()
        status = client.wait(job, timeout=120)  # polls status during drain
        assert status["state"] == "done"
        with pytest.raises(ServiceError, match="shutting down"):
            client.submit("paper-claims", smoke=True, out=str(tmp_path / "s"))
        assert len(client.results(job)) == status["executed"]

    def test_unanswered_request_raises_service_error(self, tmp_path):
        """A daemon that accepts but never answers must surface a clean
        ServiceError, not a raw socket.timeout."""
        path = tmp_path / "mute.sock"
        mute = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        mute.bind(str(path))
        mute.listen(1)
        try:
            with pytest.raises(ServiceError, match="mid-flight"):
                ServiceClient(path, timeout=0.3).ping()
        finally:
            mute.close()

    def test_garbage_reply_raises_service_error(self, tmp_path):
        """A non-daemon socket answering non-JSON must surface ServiceError."""
        import threading

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
                ServiceClient(path, timeout=5).ping()
        finally:
            server.close()
            thread.join(timeout=5)

    def test_running_job_status_has_plan_denominator(self, client, tmp_path):
        """total_cells/skipped are published before the first cell runs."""
        job = client.submit("paper-claims", smoke=True, out=str(tmp_path / "s"))
        expected = len(get_suite("paper-claims").cells(smoke=True))
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = client.status(job)
            if status["state"] in ("running", "done"):
                if status["state"] == "running":
                    assert status["total_cells"] in (0, expected)
                if status["total_cells"] == expected:
                    break
            time.sleep(0.01)
        assert client.wait(job)["total_cells"] == expected

    def test_two_daemons_cannot_share_a_socket(self, daemon, tmp_path):
        rival = SweepDaemon(socket_path=daemon.socket_path)
        with pytest.raises(RuntimeError, match="another daemon"):
            rival.start()
        # A failed rival's cleanup must not sever the live daemon: it
        # never bound the socket, so it must not unlink it either.
        rival.close()
        assert daemon.socket_path.exists()
        assert ServiceClient(daemon.socket_path).ping()["ok"] is True

    def test_stale_socket_file_is_reclaimed(self, tmp_path):
        path = tmp_path / "stale.sock"
        # a dead daemon's leftover socket file: bound once, never served
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(str(path))
        leftover.close()
        daemon = SweepDaemon(socket_path=path, workers=1)
        daemon.start()
        try:
            assert ServiceClient(path).ping()["ok"] is True
        finally:
            daemon.close()


class TestSocketPathLimit:
    """AF_UNIX sun_path is a ~104-byte buffer; the daemon must refuse an
    over-long path with a clear error instead of an opaque bind OSError."""

    def test_long_socket_path_raises_service_error_naming_path(self, tmp_path):
        deep = tmp_path / ("d" * 40) / ("e" * 40) / ("f" * 40) / "svc.sock"
        daemon = SweepDaemon(socket_path=deep, workers=1)
        with pytest.raises(ServiceError) as excinfo:
            daemon.start()
        message = str(excinfo.value)
        assert "AF_UNIX" in message
        assert str(deep) in message
        assert "--socket" in message
        # The refusal happened before any resource was acquired: the pool
        # never forked, the directory was never created, and close() after
        # the failed start is a clean no-op.
        assert not daemon.pool.started
        assert not deep.parent.exists()
        daemon.close()

    def test_limit_is_not_hit_by_short_paths(self, tmp_path):
        from repro.service.daemon import MAX_SOCKET_PATH_BYTES

        path = tmp_path / "ok.sock"
        if len(str(path).encode()) > MAX_SOCKET_PATH_BYTES:
            pytest.skip("test tmpdir itself exceeds the AF_UNIX limit")
        daemon = SweepDaemon(socket_path=path, workers=1)
        daemon.start()
        try:
            assert ServiceClient(path).ping()["ok"] is True
        finally:
            daemon.close()


class TestProtocol:
    def test_malformed_line_answered_with_error(self, daemon):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5)
        sock.connect(str(daemon.socket_path))
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

    def test_one_connection_many_requests(self, daemon):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5)
        sock.connect(str(daemon.socket_path))
        try:
            with sock.makefile("rb") as reader:
                for _ in range(3):
                    sock.sendall(json.dumps({"op": "ping"}).encode() + b"\n")
                    assert recv_message(reader)["ok"] is True
        finally:
            sock.close()


class TestObservability:
    def test_whole_daemon_status_reports_rates(self, client, tmp_path):
        job = client.submit("paper-claims", smoke=True, out=str(tmp_path / "x"))
        client.wait(job, timeout=120)
        overview = client.status()
        assert overview["uptime_s"] > 0
        assert overview["queue_depth"] == 0
        assert overview["cells_per_s"] > 0

    def test_metrics_verb_covers_daemon_pool_and_server(self, client, tmp_path):
        from repro.obs import parse_exposition
        from repro.obs.metrics import samples_named, sum_samples

        job = client.submit("paper-claims", smoke=True, out=str(tmp_path / "x"))
        client.wait(job, timeout=120)
        samples = parse_exposition(client.metrics())

        executed = len(get_suite("paper-claims").cells(smoke=True))
        assert sum_samples(samples, "daemon_cells_completed_total") == executed
        # phase breakdowns cross the worker-process boundary on CellResult
        phases = {
            sample.label("phase")
            for sample in samples_named(samples, "daemon_cell_phase_seconds_count")
        }
        assert {"generate", "run", "verify"} <= phases
        # done-job gauge and the pool/server layers are all in one scrape
        done = [
            sample.value
            for sample in samples_named(samples, "daemon_jobs")
            if sample.label("state") == "done"
        ]
        assert done == [1]
        assert sum_samples(samples, "pool_cells_executed_total") == executed
        submits = [
            sample
            for sample in samples_named(samples, "service_requests_total")
            if sample.label("verb") == "submit"
        ]
        assert submits and sum_samples(submits, "service_requests_total") == 1
        assert sum_samples(samples, "service_request_seconds_count") > 0

    def test_ping_does_not_inflate_latency_histograms(self, client):
        """ping stays cheap: it is counted, and nothing about the metrics
        path mutates job state."""
        from repro.obs import parse_exposition
        from repro.obs.metrics import samples_named

        client.ping()
        client.ping()
        samples = parse_exposition(client.metrics())
        pings = [
            sample.value
            for sample in samples_named(samples, "service_requests_total")
            if sample.label("verb") == "ping" and sample.label("outcome") == "ok"
        ]
        assert pings == [2]

    def test_metrics_history_verb_serves_retained_scrapes(self, daemon, client):
        from repro.obs.timeseries import points_from_payload

        daemon.history.snapshot()
        payload = client.metrics_history()
        assert payload["interval_s"] == daemon.history.interval_s
        points = points_from_payload(payload)
        assert len(points) >= 2  # the snapshot above plus the read-time one
        names = {sample.name for sample in points[-1].samples}
        assert "daemon_uptime_seconds" in names
        # The client surfaces invalid parameters as ServiceError.
        with pytest.raises(ServiceError, match="window_s"):
            client.metrics_history(window_s=-5)

    def test_history_spill_written_by_daemon(self, tmp_path):
        from repro.obs.timeseries import load_history_jsonl

        spill = tmp_path / "daemon-hist.jsonl"
        daemon = SweepDaemon(
            socket_path=tmp_path / "spill.sock", workers=1,
            scrape_interval_s=0.05, history_spill=spill,
        )
        daemon.start()
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if spill.exists() and len(spill.read_text().splitlines()) >= 2:
                    break
                time.sleep(0.02)
        finally:
            daemon.close()
        points = load_history_jsonl(spill)
        assert len(points) >= 2
        assert [p.unix_s for p in points] == sorted(p.unix_s for p in points)

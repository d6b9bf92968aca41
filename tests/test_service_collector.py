"""Cross-machine transport tests: the server's TCP listener and push
ingest, equivalence of two ``--fleet`` workers' server store with the
file-based merge path, concurrent fingerprint dedup, the server-side
``report`` verb over both transports, and the client's connect-retry
backoff."""

import json
import socket
import threading
import time

import pytest

from repro.experiments import CellResult, ResultStore, get_suite
from repro.experiments.cli import main
from repro.experiments.store import resolve_duplicate
from repro.service import (
    CollectorSink,
    FleetWorker,
    LineServer,
    ResultCollector,
    ServiceClient,
    ServiceError,
)
from repro.service import client as client_module
from repro.service.protocol import ok_response

from test_service_cli import MALFORMED_TELEMETRY

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="requires Unix-domain sockets"
)

TOKEN = "collector-suite-token"


def make_result(
    seed: int, rounds: float = 7.0, verified: bool = True, fingerprint: str | None = None
) -> CellResult:
    return CellResult(
        fingerprint=fingerprint or f"{seed:016x}",
        suite="s",
        scenario="scenario",
        generator="random-tree",
        algorithm="baseline-mis",
        n=10,
        seed=seed,
        rounds=rounds,
        messages=100,
        wall_clock_s=0.5,
        verified=verified,
    )


@pytest.fixture()
def collector(tmp_path):
    collector = ResultCollector(
        out=tmp_path / "central", listen="127.0.0.1:0", token=TOKEN
    )
    collector.start()
    yield collector
    collector.close()


def collector_client(collector):
    return ServiceClient(collector.endpoint, token=TOKEN)


def push(client, records):
    """Send one ``push`` batch; the reply carries the ingest counts."""
    return client.request({"op": "push", "records": records})


def retrying_client(monkeypatch, endpoint, retry_s, **kwargs):
    """A client whose connect-retry budget is ``retry_s`` seconds: the
    module default is read when a client is built."""
    monkeypatch.setattr(client_module, "DEFAULT_CONNECT_RETRY_S", retry_s)
    return ServiceClient(endpoint, **kwargs)


def watch_connects(monkeypatch):
    """Record every connect the client attempts, by outcome; returns the
    list and an event set once one has failed."""
    attempts: list[str] = []
    failed = threading.Event()
    connect = client_module.connect_endpoint

    def watched(endpoint, timeout):
        try:
            sock = connect(endpoint, timeout)
        except OSError as error:
            attempts.append(type(error).__name__)
            failed.set()
            raise
        attempts.append("connected")
        return sock

    monkeypatch.setattr(client_module, "connect_endpoint", watched)
    return attempts, failed


def start_when(event, server, endpoint) -> threading.Thread:
    """Bind ``server`` to ``endpoint`` and start it on a thread once
    ``event`` is set."""

    def start():
        assert event.wait(timeout=10)
        server.bind(endpoint)
        server.start()

    starter = threading.Thread(target=start, daemon=True)
    starter.start()
    return starter


class TestCollectorVerbs:
    def test_status_reports_records_and_duplicates(self, collector):
        response = collector_client(collector).status()
        assert response == {"ok": True, "records": 0, "duplicates": 0}

    def test_push_appends_to_a_normal_store(self, collector, tmp_path):
        client = collector_client(collector)
        response = push(client, [make_result(seed).to_record() for seed in (1, 2)])
        assert response == {"ok": True}
        assert collector.accepted == 2 and collector.dropped == 0
        records = ResultStore(tmp_path / "central").records()
        assert {record["seed"] for record in records} == {1, 2}

    def test_push_requires_records_list(self, collector):
        with pytest.raises(ServiceError, match="records"):
            collector_client(collector).request({"op": "push"})
        with pytest.raises(ServiceError, match="JSON object"):
            push(collector_client(collector), ["not-a-record"])

    def test_push_without_fingerprint_rejected(self, collector):
        with pytest.raises(ServiceError, match="fingerprint"):
            push(collector_client(collector), [{"seed": 1}])

    def test_bad_record_mid_batch_ingests_nothing(self, collector, tmp_path):
        """A batch is validated whole before any record is ingested: a bad
        record must not leave a half-ingested prefix whose counts are lost
        and whose retry would double-ingest."""
        client = collector_client(collector)
        batch = [make_result(1).to_record(), {"fingerprint": "ab" * 8}]
        with pytest.raises(ServiceError, match="record 1"):
            push(client, batch)
        assert collector.accepted == 0
        assert ResultStore(tmp_path / "central").records() == []
        # the repaired batch then ingests cleanly, exactly once
        push(client, [make_result(1).to_record()])
        assert collector.accepted == 1

    @pytest.mark.parametrize("fields", MALFORMED_TELEMETRY)
    def test_a_push_with_unobservable_telemetry_is_refused_whole(
        self, tmp_path, fields
    ):
        """Timings or engine rounds the server could not observe make a
        record no cell record, so the batch check refuses the push: nothing
        is appended or counted, and the leases stay held until a repaired
        push completes them."""
        collector = ResultCollector(out=tmp_path / "central")
        first, second = make_result(1), make_result(2)
        worker_id = collector._dispatch({
            "op": "register",
            "fingerprints": [first.fingerprint, second.fingerprint],
        })["worker_id"]
        lease = {"op": "lease", "worker_id": worker_id, "release": []}
        for result in (first, second):
            assert collector._dispatch(lease)["granted"] == [result.fingerprint]
        batch = [first.to_record(), dict(second.to_record(), **fields)]
        reply = collector._dispatch({"op": "push", "records": batch})
        assert reply["ok"] is False
        (name,) = fields
        assert reply["error"].startswith(
            f"push record 1 is not a cell record: '{name}' is not a mapping "
            "from names to"
        )
        assert collector.accepted == 0 and collector.store.lines() == []
        assert "collector_records_ingested_total 0\n" in collector.registry.render()
        assert collector._dispatch(lease) == {
            "ok": True, "known": True, "granted": [], "done": False,
        }
        repaired = [first.to_record(), second.to_record()]
        assert collector._dispatch({"op": "push", "records": repaired})["ok"]
        assert collector.accepted == 2 and len(collector.store.lines()) == 2
        assert collector._dispatch(lease)["done"] is True

    def test_report_on_empty_collector_is_an_error(self, collector):
        with pytest.raises(ServiceError, match="no results"):
            collector_client(collector).report()

    def test_failed_append_leaves_no_phantom_record(self, tmp_path):
        """A push the store could not append is answered with an error
        and leaves nothing behind: no index entry, no counter tick, no
        record in the report verb, no completed lease.  The server keeps
        serving: a second push gets the same answer."""
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        collector = ResultCollector(
            out=blocked / "sub", listen="127.0.0.1:0", token=TOKEN
        )
        with collector:
            client = collector_client(collector)
            for _ in range(2):
                with pytest.raises(ServiceError, match="Error"):
                    push(client, [make_result(1).to_record()])
            assert client.status()["records"] == 0 and collector.accepted == 0
            with pytest.raises(ServiceError, match="no results"):
                client.report()
            worker_id = client.request({
                "op": "register", "fingerprints": [make_result(1).fingerprint],
            })["worker_id"]
            assert client.request({"op": "lease", "worker_id": worker_id})["granted"]
        assert not (blocked / "sub").exists()

    def test_tcp_push_without_token_refused(self, collector):
        client = collector_client(collector)
        client.token = None
        with pytest.raises(ServiceError, match="authentication failed"):
            client.status()

    def test_shutdown_verb_stops_collector(self, tmp_path):
        collector = ResultCollector(
            out=tmp_path / "c", listen="127.0.0.1:0", token=TOKEN
        )
        collector.start()
        stopped = threading.Thread(target=collector.serve_forever, daemon=True)
        stopped.start()
        collector_client(collector).shutdown()
        stopped.join(timeout=10)
        assert not stopped.is_alive()

    def test_the_default_endpoint_is_the_service_socket(self, tmp_path, monkeypatch):
        """With no ``listen``, the server binds ``experiments/service.sock``
        under the working directory: one endpoint, no TCP."""
        monkeypatch.chdir(tmp_path)
        with ResultCollector(out=tmp_path / "c") as collector:
            assert str(collector.endpoint) == "experiments/service.sock"
            assert ServiceClient("experiments/service.sock").status()["ok"] is True
        assert not (tmp_path / "experiments" / "service.sock").exists()

    def test_unix_socket_collector_works_without_token(self, tmp_path):
        collector = ResultCollector(
            out=tmp_path / "c", listen=tmp_path / "collect.sock"
        )
        collector.start()
        try:
            client = ServiceClient(tmp_path / "collect.sock")
            push(client, [make_result(1).to_record()])
            assert client.status()["records"] == 1
        finally:
            collector.close()


class TestDedupPolicy:
    """The collector applies the exact merge policy, ingest by ingest."""

    def test_verified_wins_regardless_of_arrival_order(self, tmp_path):
        for order in ("unverified-first", "verified-first"):
            collector = ResultCollector(
                out=tmp_path / order, listen="127.0.0.1:0", token=TOKEN
            )
            collector.start()
            try:
                client = collector_client(collector)
                verified = make_result(1, rounds=7.0, verified=True).to_record()
                unverified = make_result(1, rounds=9.0, verified=False).to_record()
                if order == "unverified-first":
                    push(client, [unverified])
                    push(client, [verified])
                    assert (collector.accepted, collector.dropped) == (2, 0)
                else:
                    push(client, [verified])
                    push(client, [unverified])
                    assert (collector.accepted, collector.dropped) == (1, 1)
            finally:
                collector.close()
            # the store's readers resolve to the verified record either way
            store = ResultStore(tmp_path / order)
            assert store.completed_fingerprints() == {verified["fingerprint"]}
            latest = {r["fingerprint"]: r for r in store.records()}
            assert latest[verified["fingerprint"]]["verified"] is True
            assert latest[verified["fingerprint"]]["rounds"] == 7.0

    def test_equal_rank_differing_payloads_count_conflicts(self, collector):
        client = collector_client(collector)
        push(client, [make_result(1, rounds=7.0).to_record()])
        push(client, [make_result(1, rounds=13.0).to_record()])
        assert collector.conflicts == 1
        # last-write-wins, exactly like merge_result_files
        latest = {r["fingerprint"]: r for r in collector.store.records()}
        assert latest[make_result(1).fingerprint]["rounds"] == 13.0

    def test_concurrent_streams_verified_wins_every_time(self, tmp_path):
        """Two connections racing the same fingerprint: whatever the
        interleaving, the verified record must survive.  Runs many rounds
        over fresh fingerprints so a regression to timing-dependent
        resolution has many chances to show."""
        collector = ResultCollector(
            out=tmp_path / "race", listen="127.0.0.1:0", token=TOKEN
        )
        collector.start()
        try:
            client = collector_client(collector)
            rounds = 20
            with client.connection() as stream_a, client.connection() as stream_b:
                for index in range(rounds):
                    fingerprint = f"{index:016x}"
                    verified = make_result(
                        index, rounds=7.0, verified=True, fingerprint=fingerprint
                    ).to_record()
                    unverified = make_result(
                        index, rounds=9.0, verified=False, fingerprint=fingerprint
                    ).to_record()
                    barrier = threading.Barrier(2)

                    def push_on(stream, record):
                        barrier.wait()
                        stream.request(
                            {"op": "push", "records": [record], "token": TOKEN}
                        )

                    threads = [
                        threading.Thread(target=push_on, args=(stream_a, verified)),
                        threading.Thread(target=push_on, args=(stream_b, unverified)),
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=10)
        finally:
            collector.close()
        latest = {r["fingerprint"]: r for r in ResultStore(tmp_path / "race").records()}
        assert len(latest) == rounds
        for record in latest.values():
            assert record["verified"] is True, record
            assert record["rounds"] == 7.0

    def test_restarted_collector_still_blocks_unverified(self, tmp_path):
        """The dedup index is reseeded from the store on start, through the
        same policy."""
        first = ResultCollector(out=tmp_path / "c", listen="127.0.0.1:0", token=TOKEN)
        first.start()
        push(collector_client(first), [make_result(1, verified=True).to_record()])
        first.close()

        second = ResultCollector(out=tmp_path / "c", listen="127.0.0.1:0", token=TOKEN)
        second.start()
        try:
            push(collector_client(second), [make_result(1, verified=False).to_record()])
            assert second.dropped == 1
        finally:
            second.close()

    def test_resolve_duplicate_is_shared_with_merge(self):
        verified = make_result(1, verified=True).to_record()
        unverified = make_result(1, verified=False).to_record()
        assert not resolve_duplicate(verified, unverified).keep_newcomer
        assert resolve_duplicate(unverified, verified).keep_newcomer
        equal_rank = resolve_duplicate(
            make_result(1, rounds=7.0).to_record(),
            make_result(1, rounds=9.0).to_record(),
        )
        assert equal_rank.keep_newcomer and equal_rank.conflict


class TestStreamedEquivalence:
    """The acceptance bar: two ``--fleet`` workers pushing to a TCP
    server yield a store whose ``report --json`` bundle is byte-identical
    to the file-based shard→merge→report path over the workers' own
    local stores."""

    def test_fleet_store_report_matches_merge_path(self, collector, tmp_path, capsys):
        endpoint = str(collector.endpoint)

        def run_worker(index):
            assert main([
                "run", "paper-claims", "--smoke", "--jobs", "1", "--quiet",
                "--out", str(tmp_path / f"worker{index}"),
                "--fleet", endpoint, "--token", TOKEN,
            ]) == 0

        # Two fleet workers pulling concurrently, like two machines would.
        threads = [
            threading.Thread(target=run_worker, args=(index,)) for index in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)

        expected = len(get_suite("paper-claims").cells(smoke=True))
        assert collector.accepted == expected
        assert collector.dropped == 0 and collector.conflicts == 0

        # file-based path: merge the workers' local stores
        merged = tmp_path / "merged"
        assert main([
            "merge", "--out", str(merged / "results.jsonl"),
            *(
                str(tmp_path / f"worker{index}" / "results.jsonl")
                for index in range(2)
                if (tmp_path / f"worker{index}" / "results.jsonl").exists()
            ),
        ]) == 0
        assert main([
            "report", "--out", str(merged), "--json", str(tmp_path / "merged.json"),
            "--csv", str(tmp_path / "merged.csv"),
        ]) == 0

        # the server's store, read two ways: the store file, and the
        # server-side report verb
        assert main([
            "report", "--out", str(tmp_path / "central"),
            "--json", str(tmp_path / "central.json"),
        ]) == 0
        assert main([
            "report", "--connect", endpoint, "--token", TOKEN,
            "--json", str(tmp_path / "verb.json"), "--csv", str(tmp_path / "verb.csv"),
        ]) == 0
        capsys.readouterr()

        merged_json = (tmp_path / "merged.json").read_bytes()
        assert merged_json == (tmp_path / "central.json").read_bytes()
        assert merged_json == (tmp_path / "verb.json").read_bytes()
        assert (tmp_path / "merged.csv").read_bytes() == (tmp_path / "verb.csv").read_bytes()
        # and the stores themselves hold identical cell sets
        merged_records = {
            r["fingerprint"]: r for r in ResultStore(merged).records()
        }
        streamed_records = {
            r["fingerprint"]: r for r in ResultStore(tmp_path / "central").records()
        }
        assert merged_records == streamed_records


def fleet_run(suite_name: str, endpoint: str, tmp_path, **kwargs):
    """Run a suite's smoke sweep as one fleet worker; returns its report."""
    return FleetWorker(
        get_suite(suite_name), ResultStore(tmp_path / "worker"), endpoint,
        smoke=True, jobs=2, **kwargs,
    ).run()


class TestServerReportVerb:
    def test_report_after_a_fleet_run_matches_local_bytes(self, tmp_path, capsys):
        with ResultCollector(
            out=tmp_path / "store", listen=tmp_path / "svc.sock"
        ) as server:
            assert fleet_run("paper-claims", str(server.endpoint), tmp_path).ok
            payload = ServiceClient(server.endpoint).report()
        assert payload["all_verified"] is True
        assert "Theorem 3 shape" in payload["render"]
        # byte-identical to a local `report --json` over the server's store
        assert main([
            "report", "--out", str(tmp_path / "store"),
            "--json", str(tmp_path / "local.json"),
        ]) == 0
        capsys.readouterr()
        assert payload["json"].encode() == (tmp_path / "local.json").read_bytes()


class TestServerTcp:
    def test_fleet_run_and_report_connect_over_tcp(self, tmp_path, capsys):
        """A fleet worker leasing over TCP fills the store, and ``report
        --connect`` over TCP writes the bytes a local report writes."""
        server = ResultCollector(
            out=tmp_path / "store", listen="127.0.0.1:0", token=TOKEN,
        )
        server.start()
        try:
            endpoint = str(server.endpoint)
            report = fleet_run("paper-claims", endpoint, tmp_path, token=TOKEN)
            assert report.ok and report.executed == report.total_cells
            assert main([
                "report", "--connect", endpoint, "--token", TOKEN,
                "--json", str(tmp_path / "remote.json"),
            ]) == 0
        finally:
            server.close()
        assert main([
            "report", "--out", str(tmp_path / "store"),
            "--json", str(tmp_path / "local.json"),
        ]) == 0
        capsys.readouterr()
        assert (tmp_path / "remote.json").read_bytes() == (
            tmp_path / "local.json"
        ).read_bytes()

    def test_tcp_request_with_wrong_token_refused(self, tmp_path):
        server = ResultCollector(
            out=tmp_path / "store", listen="127.0.0.1:0", token=TOKEN,
        )
        server.start()
        try:
            with pytest.raises(ServiceError, match="authentication failed"):
                ServiceClient(server.endpoint, token="wrong").status()
        finally:
            server.close()

    def test_listen_without_token_refused_before_binding(self, tmp_path, monkeypatch):
        """The endpoint is checked before the store is read: a corrupt
        store does not hide the missing token."""
        monkeypatch.delenv("REPRO_SERVICE_TOKEN", raising=False)
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "results.jsonl").write_text("not json\n{}\n")
        server = ResultCollector(out=tmp_path / "store", listen="127.0.0.1:0")
        with pytest.raises(ServiceError, match="without an auth token"):
            server.start()
        assert server.endpoint is None
        server.close()


class TestClientConnectRetry:
    """The startup-race fix: ConnectionRefusedError (and a not-yet-bound
    socket file) retries with backoff instead of failing immediately."""

    def test_default_retry_budget_is_positive(self):
        assert ServiceClient("127.0.0.1:1").connect_retry_s > 0

    def test_module_default_is_read_when_a_client_is_built(self, monkeypatch):
        monkeypatch.setattr(client_module, "DEFAULT_CONNECT_RETRY_S", 0.25)
        assert ServiceClient("127.0.0.1:1").connect_retry_s == 0.25

    def test_tcp_connection_refused_retries_until_server_appears(self, monkeypatch):
        # reserve a free port, then release it so connects are refused
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()

        client = retrying_client(monkeypatch, f"127.0.0.1:{port}", 10, token=TOKEN)
        with pytest.raises(ServiceError, match="cannot reach"):
            retrying_client(monkeypatch, f"127.0.0.1:{port}", 0, token=TOKEN).status()

        attempts, failed = watch_connects(monkeypatch)
        server = LineServer(lambda r: ok_response(up=True), token=TOKEN)
        starter = start_when(failed, server, f"127.0.0.1:{port}")
        try:
            assert client.status()["up"] is True
            # it genuinely waited: a connect was refused before one succeeded
            assert attempts[0] == "ConnectionRefusedError"
            assert attempts[-1] == "connected"
        finally:
            starter.join(timeout=10)
            server.close()

    def test_unix_stale_socket_retries_until_a_server_replaces_it(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "race.sock"
        # a dead server's leftover: bound once, nobody accepting →
        # connects raise ConnectionRefusedError
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(str(path))
        leftover.close()
        with pytest.raises(ServiceError, match="cannot reach"):
            retrying_client(monkeypatch, path, 0).status()

        attempts, failed = watch_connects(monkeypatch)
        server = LineServer(lambda r: ok_response(up=True))
        starter = start_when(failed, server, path)
        try:
            assert retrying_client(monkeypatch, path, 10).status()["up"] is True
            assert attempts[0] == "ConnectionRefusedError"
            assert attempts[-1] == "connected"
        finally:
            starter.join(timeout=10)
            server.close()

    def test_missing_socket_file_also_retries(self, tmp_path, monkeypatch):
        """`serve &` may not have bound yet when the first fleet worker
        arrives: FileNotFoundError is part of the same startup race."""
        path = tmp_path / "notyet.sock"
        attempts, failed = watch_connects(monkeypatch)
        server = LineServer(lambda r: ok_response(up=True))
        starter = start_when(failed, server, path)
        try:
            assert retrying_client(monkeypatch, path, 10).status()["up"] is True
            assert attempts[0] == "FileNotFoundError"
            assert attempts[-1] == "connected"
        finally:
            starter.join(timeout=10)
            server.close()

    def test_exhausted_budget_raises_service_error_with_hint(self, tmp_path, monkeypatch):
        client = retrying_client(monkeypatch, tmp_path / "ghost.sock", 0.3)
        began = time.monotonic()
        with pytest.raises(ServiceError, match="cannot reach"):
            client.status()
        elapsed = time.monotonic() - began
        assert 0.2 <= elapsed < 5


class TestCollectorSink:
    def test_sink_reconnects_after_collector_restart(self, tmp_path, monkeypatch):
        """One mid-stream collector restart costs a reconnect, not the sweep."""
        first = ResultCollector(out=tmp_path / "c", listen="127.0.0.1:0", token=TOKEN)
        first.start()
        endpoint = str(first.endpoint)
        sink = CollectorSink(retrying_client(monkeypatch, endpoint, 10, token=TOKEN))
        sink(make_result(1))
        first.close()

        # rebind the same port; SO_REUSEADDR makes this immediate
        second = ResultCollector(out=tmp_path / "c", listen=endpoint, token=TOKEN)
        second.start()
        try:
            sink(make_result(2))
        finally:
            sink.close()
            second.close()
        assert {r["seed"] for r in ResultStore(tmp_path / "c").records()} == {1, 2}


class TestObservability:
    def test_metrics_verb_tracks_ingest_fates(self, collector):
        from repro.obs import parse_exposition
        from repro.obs.metrics import samples_named, sum_samples

        client = collector_client(collector)
        push(client, [make_result(seed).to_record() for seed in (1, 2)])
        # unverified duplicate loses to the verified record -> dropped
        push(client, [make_result(1, verified=False).to_record()])
        # equal-rank duplicate with a different payload -> conflict (kept)
        push(client, [make_result(1, rounds=99.0).to_record()])
        samples = parse_exposition(client.metrics())

        # ingested counts store *appends* only — the dropped record must
        # not tick it, so it always equals the store's line count (the
        # CI burn check pins exactly this)
        assert sum_samples(samples, "collector_records_ingested_total") == 3
        store_lines = [
            line
            for line in collector.store.path.read_text().splitlines()
            if line.strip()
        ]
        assert len(store_lines) == 3
        fates = {
            sample.label("fate"): sample.value
            for sample in samples_named(samples, "collector_records_total")
        }
        assert fates == {"accepted": 2, "dropped": 1, "conflict": 1}
        # push-batch size histogram saw batches of 2, 1 and 1
        assert sum_samples(samples, "collector_push_batch_records_count") == 3
        assert sum_samples(samples, "collector_push_batch_records_sum") == 4
        # per-stream lag gauge is present once a push has arrived
        lag = samples_named(samples, "collector_seconds_since_last_push")
        assert len(lag) == 1 and lag[0].value >= 0

    def test_fresh_store_reads_zero_records_at_start(self, collector):
        text = collector_client(collector).metrics()
        assert "collector_store_records_at_start 0\n" in text

    def test_records_at_start_count_the_replay_not_later_appends(self, tmp_path):
        """The gauge is what was on disk before this process appended
        anything, a fingerprint-less line included; pushes tick only the
        ingest counter."""
        store = ResultStore(tmp_path / "central")
        store.append(make_result(seed=1))
        store.append(make_result(seed=2))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"seed": 3}\n')
        collector = ResultCollector(
            out=store.directory, listen="127.0.0.1:0", token=TOKEN
        )
        collector.start()
        try:
            client = collector_client(collector)
            push(client, [make_result(seed=4).to_record()])
            text = client.metrics()
        finally:
            collector.close()
        assert "collector_store_records_at_start 3\n" in text
        assert "collector_store_malformed_records 1\n" in text
        assert "collector_records_ingested_total 1\n" in text

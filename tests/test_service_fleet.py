"""Elastic fleet tests: the lease table's scheduling semantics under a
fake clock, the collector's fleet verbs, the pull-based
:class:`FleetWorker` loop end to end (including a dead worker whose
leases are reassigned to a survivor, byte-identical reports included),
the transport-vs-server-error split in :class:`CollectorSink`, and a
restarted collector skipping malformed store records instead of
refusing to start."""

import json
import multiprocessing
import socket
import threading

import pytest

from repro.experiments import ResultStore, Suite, get_suite
from repro.experiments.cli import main
from repro.experiments.spec import (
    ALGORITHMS,
    AlgorithmFamily,
    ScenarioSpec,
    register_algorithm,
)
from repro.obs.slo import DEFAULT_SLOS, evaluate_slos
from repro.service import (
    CollectorSink,
    FleetWorker,
    LeaseTable,
    LineServer,
    ResultCollector,
    ServiceClient,
    ServiceError,
    ServiceTransportError,
)
from repro.service.protocol import error_response, ok_response, parse_endpoint

from test_service_collector import make_result
from test_service_pool import meeting_suite

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="requires Unix-domain sockets"
)

TOKEN = "fleet-suite-token"

TINY = Suite(
    name="fleet-tiny",
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


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_table(**kwargs) -> tuple[LeaseTable, FakeClock]:
    clock = FakeClock()
    table = LeaseTable(
        heartbeat_interval_s=kwargs.pop("heartbeat_interval_s", 1.0),
        clock=clock,
        **kwargs,
    )
    return table, clock


class TestLeaseTable:
    def test_register_hands_out_ids_and_cadence(self):
        table, _ = make_table(lease_ttl_s=3.0)
        first = table.register("alpha")
        second = table.register("beta")
        assert first["worker_id"] != second["worker_id"]
        assert first["heartbeat_interval_s"] == 1.0
        assert first["lease_ttl_s"] == 3.0

    def test_invalid_cadence_rejected(self):
        with pytest.raises(ValueError, match="heartbeat interval"):
            LeaseTable(heartbeat_interval_s=0)
        with pytest.raises(ValueError, match="lease TTL"):
            LeaseTable(heartbeat_interval_s=2.0, lease_ttl_s=1.0)

    def test_default_ttl_is_two_heartbeats(self):
        table = LeaseTable(heartbeat_interval_s=0.5)
        assert table.lease_ttl_s == 1.0

    def test_grant_respects_limit_and_skips_completed_and_leased(self):
        table, _ = make_table()
        universe = [f"fp-{i}" for i in range(6)]
        table.seed_completed(["fp-0"])
        alpha = table.register("alpha")["worker_id"]
        beta = table.register("beta")["worker_id"]
        first = table.grant(alpha, universe, limit=3)
        assert first["granted"] == ["fp-1", "fp-2", "fp-3"]
        assert first["pending"] == 2 and not first["done"]
        second = table.grant(beta, universe, limit=10)
        assert second["granted"] == ["fp-4", "fp-5"]
        assert second["pending"] == 0
        assert second["outstanding"] == 3  # alpha still holds its batch
        assert not second["done"]

    def test_unknown_worker_gets_none(self):
        table, _ = make_table()
        assert table.heartbeat("worker-99") is None
        assert table.grant("worker-99", ["fp-0"]) is None

    def test_heartbeat_renews_leases_past_original_deadline(self):
        table, clock = make_table(lease_ttl_s=2.0)
        alpha = table.register("alpha")["worker_id"]
        table.grant(alpha, ["fp-0"], limit=1)
        clock.advance(1.5)
        assert table.heartbeat(alpha) == {"leases": 1}
        clock.advance(1.5)  # 3.0s after grant, 1.5s after renewal
        assert table.active_leases() == 1
        assert table.counts["expired"] == 0

    def test_missed_heartbeats_expire_and_reassign(self):
        events = []
        clock = FakeClock()
        table = LeaseTable(
            heartbeat_interval_s=1.0, lease_ttl_s=2.0, clock=clock,
            on_event=lambda fate, age: events.append((fate, age)),
        )
        dead = table.register("dead")["worker_id"]
        table.grant(dead, ["fp-0", "fp-1"], limit=2)
        clock.advance(2.5)
        survivor = table.register("survivor")["worker_id"]
        grant = table.grant(survivor, ["fp-0", "fp-1"], limit=2)
        assert sorted(grant["granted"]) == ["fp-0", "fp-1"]
        assert table.counts["expired"] == 2
        assert table.counts["reassigned"] == 2
        expired = [age for fate, age in events if fate == "expired"]
        assert expired == [2.5, 2.5]
        # the dead worker's late heartbeat finds nothing to renew
        assert table.heartbeat(dead) == {"leases": 0}

    def test_release_hands_failed_cells_to_the_next_worker(self):
        table, _ = make_table()
        alpha = table.register("alpha")["worker_id"]
        beta = table.register("beta")["worker_id"]
        table.grant(alpha, ["fp-0"], limit=1)
        table.grant(alpha, [], release=["fp-0"])
        assert table.counts["released"] == 1
        grant = table.grant(beta, ["fp-0"], limit=1)
        assert grant["granted"] == ["fp-0"]
        assert table.counts["reassigned"] == 1

    def test_release_of_another_workers_lease_is_ignored(self):
        table, _ = make_table()
        alpha = table.register("alpha")["worker_id"]
        beta = table.register("beta")["worker_id"]
        table.grant(alpha, ["fp-0"], limit=1)
        table.grant(beta, [], release=["fp-0"])
        assert table.counts["released"] == 0
        assert table.active_leases() == 1

    def test_complete_retires_the_lease_and_credits_the_worker(self):
        table, clock = make_table()
        alpha = table.register("alpha")["worker_id"]
        table.grant(alpha, ["fp-0"], limit=1)
        clock.advance(0.5)
        table.complete("fp-0")
        assert table.active_leases() == 0
        assert table.completed_count() == 1
        assert table.counts["completed"] == 1
        status = table.fleet_status()
        assert status["workers"][0]["completed"] == 1
        # a completed fingerprint is never granted again
        assert table.grant(alpha, ["fp-0"], limit=1)["granted"] == []

    def test_complete_without_a_lease_counts_no_lease_event(self):
        """A non-fleet shard worker's push still informs the scheduler
        (the fingerprint is done) but must not tick lease metrics."""
        table, _ = make_table()
        table.complete("fp-0")
        assert table.completed_count() == 1
        assert table.counts["completed"] == 0

    def test_done_only_when_offered_universe_is_completed(self):
        table, _ = make_table()
        alpha = table.register("alpha")["worker_id"]
        beta = table.register("beta")["worker_id"]
        table.grant(alpha, ["fp-0"], limit=1)
        # beta sees nothing pending, but alpha's lease is outstanding
        stalled = table.grant(beta, ["fp-0"], limit=1)
        assert stalled["granted"] == [] and not stalled["done"]
        table.complete("fp-0")
        assert table.grant(beta, ["fp-0"], limit=1)["done"] is True

    def test_worker_counts_track_liveness(self):
        table, clock = make_table(lease_ttl_s=2.0)
        table.register("alpha")
        clock.advance(3.0)
        table.register("beta")
        assert table.worker_counts() == {"alive": 1, "lost": 1}

    def test_oldest_lease_age_feeds_the_stuck_slo(self):
        table, clock = make_table(lease_ttl_s=2.0)
        alpha = table.register("alpha")["worker_id"]
        table.grant(alpha, ["fp-0"], limit=1)
        assert table.oldest_lease_age_s() == 0.0
        clock.advance(7.0)
        # deliberately unswept: the age is visible even past the TTL
        assert table.oldest_lease_age_s() == 7.0

    def test_fleet_status_shape(self):
        table, _ = make_table()
        alpha = table.register("alpha")["worker_id"]
        table.grant(alpha, ["fp-0", "fp-1"], limit=2)
        table.complete("fp-0")
        status = table.fleet_status()
        assert status["active_leases"] == 1
        assert status["completed"] == 1
        assert status["workers"][0]["leases"] == 1
        assert status["lease_counts"]["granted"] == 2
        assert set(status["lease_counts"]) == {
            "granted", "renewed", "expired", "released", "reassigned",
            "completed",
        }


@pytest.fixture()
def collector(tmp_path):
    collector = ResultCollector(
        out=tmp_path / "central", listen="127.0.0.1:0", token=TOKEN,
        heartbeat_interval_s=0.2,
    )
    collector.start()
    yield collector
    collector.close()


def collector_client(collector):
    host, port = collector.tcp_address
    return ServiceClient(f"{host}:{port}", token=TOKEN)


class TestCollectorFleetVerbs:
    def test_register_heartbeat_lease_round_trip(self, collector):
        client = collector_client(collector)
        reply = client.register("w1")
        worker_id = reply["worker_id"]
        assert reply["heartbeat_interval_s"] == 0.2
        assert reply["lease_ttl_s"] == pytest.approx(0.4)
        beat = client.heartbeat(worker_id)
        assert beat["known"] is True and beat["leases"] == 0
        grant = client.lease(worker_id, ["fp-0", "fp-1"], limit=1)
        assert grant["known"] is True
        assert grant["granted"] == ["fp-0"]
        status = client.fleet_status()
        assert status["active_leases"] == 1
        assert status["workers"][0]["worker_id"] == worker_id

    def test_unknown_worker_is_known_false_not_an_error(self, collector):
        client = collector_client(collector)
        assert client.heartbeat("worker-404")["known"] is False
        grant = client.lease("worker-404", ["fp-0"])
        assert grant["known"] is False and grant["granted"] == []

    def test_push_completes_the_lease(self, collector):
        client = collector_client(collector)
        worker_id = client.register("w1")["worker_id"]
        result = make_result(seed=1)
        client.lease(worker_id, [result.fingerprint], limit=1)
        assert collector.leases.active_leases() == 1
        client.push([result.to_record()])
        assert collector.leases.active_leases() == 0
        assert collector.leases.counts["completed"] == 1

    def test_every_push_fate_completes_idempotently(self, collector):
        """Every ingest fate — even a dropped duplicate — marks the
        fingerprint done in the scheduler (the cell ran *somewhere*),
        and repeat pushes do not double-count completion events."""
        client = collector_client(collector)
        worker_id = client.register("w1")["worker_id"]
        verified = make_result(seed=1, verified=True)
        client.lease(worker_id, [verified.fingerprint], limit=1)
        assert collector.ingest(verified.to_record()) == "accepted"
        assert collector.leases.counts["completed"] == 1
        unverified = make_result(seed=1, verified=False)
        assert collector.ingest(unverified.to_record()) == "dropped"
        assert collector.leases.completed_count() == 1
        assert collector.leases.active_leases() == 0
        # the second push found no active lease: no second event
        assert collector.leases.counts["completed"] == 1

    @pytest.mark.parametrize("payload,match", [
        ({"op": "register"}, "worker"),
        ({"op": "register", "worker": 7}, "worker"),
        ({"op": "heartbeat"}, "worker_id"),
        ({"op": "heartbeat", "worker_id": 3}, "worker_id"),
        ({"op": "lease"}, "worker_id"),
        ({"op": "lease", "worker_id": "w", "fingerprints": "fp"}, "fingerprints"),
        ({"op": "lease", "worker_id": "w", "fingerprints": [1]}, "fingerprints"),
        ({"op": "lease", "worker_id": "w", "fingerprints": [], "limit": 0}, "limit"),
        ({"op": "lease", "worker_id": "w", "fingerprints": [], "limit": True}, "limit"),
        ({"op": "lease", "worker_id": "w", "fingerprints": [], "release": "x"}, "release"),
    ])
    def test_malformed_fleet_requests_are_errors(self, collector, payload, match):
        with pytest.raises(ServiceError, match=match):
            collector_client(collector).request(payload)

    def test_fleet_metrics_exported(self, collector):
        client = collector_client(collector)
        worker_id = client.register("w1")["worker_id"]
        result = make_result(seed=1)
        client.lease(worker_id, [result.fingerprint], limit=1)
        client.push([result.to_record()])
        text = client.metrics()
        assert 'fleet_workers{state="alive"} 1' in text
        assert 'fleet_leases_total{fate="granted"} 1' in text
        assert 'fleet_leases_total{fate="completed"} 1' in text
        assert "fleet_oldest_lease_age_seconds 0" in text
        assert "fleet_lease_ttl_seconds 0.4" in text
        assert "fleet_lease_age_seconds_count 1" in text


class TestCollectorSinkErrors:
    """Satellite pin: only *transport* failures trigger the sink's
    reconnect-once retry; a server error response propagates at once."""

    def serve(self, tmp_path, handler, close_after=None):
        server = LineServer(handler, name="sink-test", close_after=close_after)
        server.listen_unix(tmp_path / "sink.sock")
        server.start()
        return server, parse_endpoint(tmp_path / "sink.sock")

    def test_transport_failure_reconnects_once_and_succeeds(self, tmp_path):
        requests = []

        def handler(request):
            requests.append(request["op"])
            return ok_response(accepted=1, dropped=0)

        # the server closes the connection after every response, so each
        # push after the first hits a dead socket — a transport failure
        server, endpoint = self.serve(
            tmp_path, handler, close_after=lambda request, _: True
        )
        try:
            sink = CollectorSink(ServiceClient(str(endpoint)))
            sink(make_result(seed=1))
            sink(make_result(seed=2))
            sink.close()
        finally:
            server.close()
        assert sink.pushed == 2
        assert requests.count("push") == 2

    def test_server_error_response_propagates_without_retry(self, tmp_path):
        requests = []

        def handler(request):
            requests.append(request["op"])
            return error_response("collector rejected the record")

        server, endpoint = self.serve(tmp_path, handler)
        try:
            sink = CollectorSink(ServiceClient(str(endpoint)))
            with pytest.raises(ServiceError, match="rejected the record"):
                sink(make_result(seed=1))
            sink.close()
        finally:
            server.close()
        # exactly one attempt: a definitive server verdict is not retried
        assert requests == ["push"]
        assert sink.pushed == 0

    def test_transport_error_is_a_service_error_subclass(self):
        assert issubclass(ServiceTransportError, ServiceError)


class TestMalformedStoreRestart:
    def test_collector_restart_skips_and_counts_bad_records(self, tmp_path):
        """A corrupt line in the store (no fingerprint) must not brick
        the restart — it is skipped, counted and surfaced."""
        store_dir = tmp_path / "central"
        good = make_result(seed=1)
        bad = {"seed": 2, "rounds": 3.0}  # fingerprint missing
        empty = dict(good.to_record(), fingerprint="")
        store_dir.mkdir()
        with open(store_dir / "results.jsonl", "w") as handle:
            for record in (good.to_record(), bad, empty):
                handle.write(json.dumps(record) + "\n")
        collector = ResultCollector(
            out=store_dir, listen="127.0.0.1:0", token=TOKEN
        )
        collector.start()
        try:
            client = collector_client(collector)
            status = client.status()
            assert status["records"] == 1
            assert status["malformed_store_records"] == 2
            assert "collector_store_malformed_records 2" in client.metrics()
            # the surviving verified record still seeds the lease table
            assert collector.leases.completed_count() == 1
        finally:
            collector.close()


def run_fleet_worker(suite, store, collector, **kwargs):
    host, port = collector.tcp_address
    worker = FleetWorker(
        suite, store, f"{host}:{port}", token=TOKEN, **kwargs
    )
    return worker, worker.run()


class TestFleetWorkerEndToEnd:
    def test_single_worker_completes_the_suite(self, collector, tmp_path):
        store = ResultStore(tmp_path / "w1")
        worker, report = run_fleet_worker(
            TINY, store, collector, jobs=2, lease_batch=2, name="w1"
        )
        total = len(TINY.cells())
        assert report.ok
        assert report.executed == total and report.skipped == 0
        assert worker.pushed == total
        assert len(store) == total
        assert len(ResultStore(tmp_path / "central")) == total
        status = collector.leases.fleet_status()
        assert status["active_leases"] == 0
        assert status["completed"] == total
        assert status["lease_counts"]["completed"] == total

    def test_two_jobs_run_two_leased_cells_at_once(
        self, collector, tmp_path, monkeypatch
    ):
        """One lease of two cells on two workers runs both at once: each
        cell waits at a barrier for the other."""
        suite = meeting_suite(monkeypatch)
        worker, report = run_fleet_worker(
            suite, ResultStore(tmp_path / "meet"), collector,
            jobs=2, lease_batch=2, name="meet",
        )
        assert report.ok and report.executed == 2
        assert worker.pushed == 2

    def test_a_failed_push_aborts_the_run(self, collector, tmp_path, monkeypatch):
        """Unlike a fail-soft ``--collector`` sink, a fleet push that fails
        stops the worker; the cell it could not push is already in the
        local store, and the pool is shut down."""
        def refuse(sink, result):
            raise ServiceError("collector refused the push")

        monkeypatch.setattr(CollectorSink, "__call__", refuse)
        store = ResultStore(tmp_path / "refused")
        with pytest.raises(ServiceError, match="refused"):
            run_fleet_worker(TINY, store, collector, jobs=2, name="refused")
        assert len(store) == 1
        assert multiprocessing.active_children() == []

    def test_dead_workers_leases_are_reassigned_and_report_is_identical(
        self, collector, tmp_path, capsys
    ):
        """The elastic acceptance bar: a worker that leases cells and
        dies without heartbeating loses them to the survivor, the suite
        finishes with no lost cells, and the collector's report is
        byte-identical to a plain single-machine run's."""
        client = collector_client(collector)
        dead_id = client.register("doomed")["worker_id"]
        universe = [cell.fingerprint for cell in TINY.cells()]
        grabbed = client.lease(dead_id, universe, limit=3)["granted"]
        assert len(grabbed) == 3
        # ... the worker dies here: no heartbeat ever arrives

        store = ResultStore(tmp_path / "survivor")
        worker, report = run_fleet_worker(
            TINY, store, collector, jobs=2, lease_batch=2, name="survivor"
        )
        total = len(TINY.cells())
        assert report.ok and report.executed == total
        assert collector.leases.counts["expired"] >= 3
        assert collector.leases.counts["reassigned"] >= 3
        assert len(ResultStore(tmp_path / "central")) == total
        states = {
            w["name"]: w["state"]
            for w in collector.leases.fleet_status()["workers"]
        }
        assert states["doomed"] == "lost"

        # The survivor executed every cell, so the collector's merged
        # store and the survivor's local store hold the same records —
        # their report bundles must be byte-identical (the elastic path
        # loses nothing and invents nothing).
        assert main([
            "report", "--out", str(tmp_path / "central"),
            "--json", str(tmp_path / "fleet.json"),
        ]) == 0
        assert main([
            "report", "--out", str(tmp_path / "survivor"),
            "--json", str(tmp_path / "local.json"),
        ]) == 0
        capsys.readouterr()
        fleet_bytes = (tmp_path / "fleet.json").read_bytes()
        assert fleet_bytes == (tmp_path / "local.json").read_bytes()
        # and modulo the nonsemantic wall clock, a plain single-machine
        # run over the same suite agrees record for record
        plain = ResultStore(tmp_path / "plain")
        from repro.experiments import SweepRunner

        assert SweepRunner(TINY, plain, jobs=1).run().ok

        def semantic(store):
            records = {}
            for record in store.records():
                record.pop("wall_clock_s", None)
                record.pop("timings", None)
                records[record["fingerprint"]] = record
            return records

        assert semantic(ResultStore(tmp_path / "central")) == semantic(plain)

    def test_replacement_worker_resumes_from_completed_fingerprints(
        self, collector, tmp_path
    ):
        """A replacement machine needs no JSONL copying: the collector
        simply never grants what the first worker already pushed."""
        first = ResultStore(tmp_path / "first")
        done = 0
        client = collector_client(collector)
        for cell in TINY.cells()[:3]:
            from repro.experiments.runner import run_cell

            result = run_cell(TINY.name, cell)
            first.append(result)
            client.push([result.to_record()])
            done += 1
        replacement = ResultStore(tmp_path / "replacement")
        worker, report = run_fleet_worker(
            TINY, replacement, collector, jobs=1, name="replacement"
        )
        total = len(TINY.cells())
        assert report.executed == total - done
        assert report.skipped == done
        assert len(ResultStore(tmp_path / "central")) == total

    def test_failed_cells_are_released_not_retried_forever(
        self, collector, tmp_path
    ):
        if "_test-boom" not in ALGORITHMS:
            def boom(graph, generator, n):
                raise RuntimeError("boom")

            register_algorithm(AlgorithmFamily(
                name="_test-boom", description="always raises",
                kind="baseline", run=boom,
            ))
        suite = Suite(
            name="fleet-boom", description="", scenarios=(
                ScenarioSpec(
                    name="boom", generator="random-tree",
                    algorithm="_test-boom", sizes=(10,), seeds=(1,),
                ),
                ScenarioSpec(
                    name="ok", generator="random-tree",
                    algorithm="baseline-mis", sizes=(10,), seeds=(1,),
                ),
            ),
        )
        store = ResultStore(tmp_path / "boom")
        worker, report = run_fleet_worker(
            suite, store, collector, jobs=1, name="boom-worker"
        )
        assert not report.ok
        assert len(report.failures) == 1
        assert "boom" in report.failures[0].error
        assert report.executed == 1
        # the failed fingerprint went back to the fleet, not into limbo
        assert collector.leases.counts["released"] == 1
        assert collector.leases.active_leases() == 0

    def test_cli_fleet_flag_is_exclusive_with_shard_and_collector(
        self, capsys
    ):
        for extra in (["--shard", "0/2"], ["--collector", "127.0.0.1:1"]):
            assert main([
                "run", "paper-claims", "--smoke",
                "--fleet", "127.0.0.1:1", *extra,
            ]) == 2
            assert "--fleet replaces" in capsys.readouterr().err

    def test_cli_fleet_run_end_to_end(self, collector, tmp_path, capsys):
        host, port = collector.tcp_address
        code = main([
            "run", "lower-bound", "--smoke",
            "--fleet", f"{host}:{port}", "--token", TOKEN,
            "--out", str(tmp_path / "cli-store"), "--jobs", "1",
            "--worker-name", "cli-worker", "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "[fleet " in out and "cli-worker" in out
        assert "pushed" in out
        total = len(get_suite("lower-bound").cells(smoke=True))
        assert len(ResultStore(tmp_path / "central")) == total


class TestLeaseStuckSLO:
    def evaluate(self, samples):
        results = {r.name: r for r in evaluate_slos(samples)}
        return results["lease-stuck"]

    @staticmethod
    def scrape(collector):
        client = collector_client(collector)
        from repro.obs import parse_exposition

        return parse_exposition(client.metrics())

    def test_no_fleet_data_passes(self):
        verdict = self.evaluate([])
        assert verdict.ok and verdict.no_data

    def test_healthy_collector_scrape_passes(self, collector):
        client = collector_client(collector)
        worker_id = client.register("w1")["worker_id"]
        client.lease(worker_id, ["fp-0"], limit=1)
        verdict = self.evaluate(self.scrape(collector))
        assert verdict.ok and not verdict.no_data
        assert "3x" in verdict.detail

    def test_lease_stuck_past_three_ttls_burns(self, tmp_path):
        clock = FakeClock()
        collector = ResultCollector(
            out=tmp_path / "c", listen="127.0.0.1:0", token=TOKEN,
            heartbeat_interval_s=0.2,
        )
        collector.leases._clock = clock
        collector.start()
        try:
            client = collector_client(collector)
            worker_id = client.register("w1")["worker_id"]
            client.lease(worker_id, ["fp-0"], limit=1)
            clock.advance(5.0)  # ttl is 0.4s; 5s >> 3x budget
            verdict = self.evaluate(self.scrape(collector))
        finally:
            collector.close()
        assert not verdict.ok
        assert "oldest active lease" in verdict.detail

    def test_slo_roster_includes_lease_stuck(self):
        assert "lease-stuck" in {slo.name for slo in DEFAULT_SLOS}

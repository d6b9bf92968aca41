"""Elastic fleet tests: the lease table's scheduling semantics under a
fake clock, the collector's fleet verbs (request bytes linear in a
sweep's cells included), the worker's side of the protocol against a
fake lessor, the pull-based :class:`FleetWorker` loop end to end
(including a dead worker whose leases are reassigned to a survivor,
byte-identical reports included), the transport-vs-server-error split
in :class:`CollectorSink`, and a restarted collector skipping malformed
store records instead of refusing to start."""

import json
import multiprocessing
import re
import socket
import threading

import pytest

from repro.experiments import ResultStore, Suite, get_suite
from repro.experiments.cli import main
from repro.experiments.runner import CellOutcome, WorkerPool
from repro.experiments.spec import (
    ALGORITHMS,
    AlgorithmFamily,
    ScenarioSpec,
    register_algorithm,
)
from repro.obs import parse_exposition
from repro.obs.metrics import sum_samples
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
from repro.service.protocol import error_response, ok_response

from test_service_cli import MALFORMED_TELEMETRY
from test_service_collector import make_result, push
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


class Recorder:
    """A lease table's event callback: every ``(fate, age_s)`` it reports."""

    def __init__(self) -> None:
        self.events: list[tuple[str, float | None]] = []

    def __call__(self, fate: str, age_s: float | None) -> None:
        self.events.append((fate, age_s))

    def count(self, fate: str) -> int:
        return sum(1 for event, _ in self.events if event == fate)

    def held(self) -> int:
        """Leases granted and not yet completed, expired or released."""
        return self.count("granted") - sum(
            self.count(fate) for fate in ("completed", "expired", "released")
        )


def make_table(heartbeat_interval_s: float = 1.0):
    clock, events = FakeClock(), Recorder()
    table = LeaseTable(
        heartbeat_interval_s=heartbeat_interval_s, clock=clock, on_event=events
    )
    return table, clock, events


class CountingSet(set):
    """A set that counts its membership tests."""

    checks = 0

    def __contains__(self, item) -> bool:
        self.checks += 1
        return super().__contains__(item)


class CountingDict(dict):
    """A dict that counts the scans over it."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


#: A worker id as a server hands it out: its prefix is fresh per server
#: lifetime, the number counts registrations.
WORKER_ID = r"worker-[0-9a-f]{8}-{n}"


def first_worker_id() -> str:
    return WORKER_ID.replace("{n}", "1")


class TestLeaseTable:
    def test_register_hands_out_ids_and_cadence(self):
        table, _, _ = make_table(heartbeat_interval_s=1.5)
        first = table.register(["fp-0"])
        second = table.register(["fp-0"])
        assert first["worker_id"] != second["worker_id"]
        assert first == {
            "worker_id": first["worker_id"], "heartbeat_interval_s": 1.5,
        }
        assert re.fullmatch(first_worker_id(), first["worker_id"])

    def test_an_id_from_before_a_restart_is_unknown_after_it(self):
        """A restarted server numbers its workers afresh under a new
        prefix.  Two workers on different suites register again in
        whichever order they ask, and the old id of one never names the
        offer the other registered first: that would grant it a cell of
        another suite."""
        before, _, _ = make_table()
        alpha = before.register(["fp-a"])["worker_id"]
        beta = before.register(["fp-b"])["worker_id"]
        after, _, _ = make_table()  # the restart
        beta_again = after.register(["fp-b"])["worker_id"]  # beta asks first
        assert beta_again not in (alpha, beta)
        assert after.heartbeat(alpha) == {"known": False}
        assert after.grant(alpha) == {"known": False, "granted": [], "done": False}
        alpha_again = after.register(["fp-a"])["worker_id"]
        assert after.grant(alpha_again)["granted"] == ["fp-a"]
        assert after.grant(beta_again)["granted"] == ["fp-b"]

    @pytest.mark.parametrize("interval", [0, -1.0, float("nan"), float("inf")])
    def test_invalid_cadence_rejected(self, interval):
        """A NaN interval would make a NaN TTL, under which no lease ever
        expires and every worker reads as lost."""
        with pytest.raises(ValueError, match="heartbeat interval"):
            LeaseTable(heartbeat_interval_s=interval)

    def test_the_server_refuses_a_non_finite_interval_too(self, tmp_path):
        """``ResultCollector`` builds its lease table without the CLI."""
        with pytest.raises(ValueError, match="heartbeat interval"):
            ResultCollector(out=tmp_path / "c", heartbeat_interval_s=float("nan"))

    def test_default_ttl_is_two_heartbeats(self):
        table = LeaseTable(heartbeat_interval_s=0.5)
        assert table.lease_ttl_s == 1.0

    def test_grant_leases_one_cell_and_skips_completed_and_leased(self):
        table, _, _ = make_table()
        universe = [f"fp-{i}" for i in range(6)]
        table.seed_completed(["fp-0"])
        alpha = table.register(universe)["worker_id"]
        beta = table.register(universe)["worker_id"]
        first = table.grant(alpha)
        assert first == {"known": True, "granted": ["fp-1"], "done": False}
        second = table.grant(beta)
        assert second == {"known": True, "granted": ["fp-2"], "done": False}

    def test_grant_leases_a_repeated_fingerprint_once(self):
        """An offer naming a cell twice leases it once, in first-offer
        order: a worker trusting the reply must not run it twice."""
        table, _, events = make_table()
        alpha = table.register(["fp-a", "fp-a", "fp-b"])["worker_id"]
        assert table.grant(alpha)["granted"] == ["fp-a"]
        assert table.grant(alpha)["granted"] == ["fp-b"]
        assert table.grant(alpha) == {"known": True, "granted": [], "done": False}
        assert events.count("granted") == 2

    def test_a_fingerprint_leased_elsewhere_is_skipped(self):
        table, _, events = make_table()
        alpha = table.register(["fp-a"])["worker_id"]
        beta = table.register(["fp-a", "fp-c", "fp-a"])["worker_id"]
        assert table.grant(alpha)["granted"] == ["fp-a"]
        assert table.grant(beta)["granted"] == ["fp-c"]
        assert table.grant(beta)["granted"] == []
        assert events.count("granted") == 2
        assert events.held() == 2

    def test_unknown_worker_is_known_false(self):
        table, _, _ = make_table()
        assert table.heartbeat("worker-99") == {"known": False}
        assert table.grant("worker-99") == {
            "known": False, "granted": [], "done": False,
        }

    def test_heartbeat_renews_leases_past_original_deadline(self):
        table, clock, events = make_table()
        alpha = table.register(["fp-0"])["worker_id"]
        table.grant(alpha)
        clock.advance(1.5)
        assert table.heartbeat(alpha) == {"known": True}
        assert events.count("renewed") == 1
        clock.advance(1.5)  # 3.0s after grant, 1.5s after renewal
        table.register([])  # every verb sweeps expired leases first
        assert events.held() == 1
        assert events.count("expired") == 0

    def test_missed_heartbeats_expire_and_reassign(self):
        table, clock, events = make_table()
        dead = table.register(["fp-0", "fp-1"])["worker_id"]
        table.grant(dead)
        table.grant(dead)
        clock.advance(2.5)
        survivor = table.register(["fp-0", "fp-1"])["worker_id"]
        granted = [table.grant(survivor)["granted"] for _ in range(2)]
        assert granted == [["fp-0"], ["fp-1"]]
        assert events.count("expired") == 2
        assert events.count("reassigned") == 2
        expired = [age for fate, age in events.events if fate == "expired"]
        assert expired == [2.5, 2.5]
        # the survivor's registration forgot the lost worker: its late
        # heartbeat renews nothing and tells it to register again
        assert table.heartbeat(dead) == {"known": False}
        assert events.count("renewed") == 0

    def test_an_expired_lease_is_granted_before_the_cursor_moves_on(self):
        """A fingerprint whose lease expires comes back to a worker whose
        cursor already passed it, ahead of the cells the cursor has not
        reached."""
        table, clock, events = make_table()
        offer = ["fp-a", "fp-b", "fp-c"]
        alpha = table.register(offer)["worker_id"]
        beta = table.register(offer)["worker_id"]
        assert table.grant(alpha)["granted"] == ["fp-a"]
        assert table.grant(beta)["granted"] == ["fp-b"]  # passes leased fp-a
        clock.advance(1.5)
        table.heartbeat(beta)
        clock.advance(1.0)  # alpha's lease is 2.5s old, beta's renewed 1s ago
        assert table.grant(beta)["granted"] == ["fp-a"]
        assert events.count("reassigned") == 1
        assert table.grant(beta)["granted"] == ["fp-c"]

    def test_release_hands_failed_cells_to_the_next_worker(self):
        table, _, events = make_table()
        alpha = table.register(["fp-0"])["worker_id"]
        beta = table.register(["fp-0"])["worker_id"]
        table.grant(alpha)
        # done ignores what the worker released
        assert table.grant(alpha, release=["fp-0"]) == {
            "known": True, "granted": [], "done": True,
        }
        assert events.count("released") == 1
        assert table.grant(beta)["granted"] == ["fp-0"]
        assert events.count("reassigned") == 1

    def test_a_released_fingerprint_never_returns_to_its_worker(self):
        """Released cells go to other workers only, even when this one
        asks first and no one else holds them."""
        table, _, events = make_table()
        alpha = table.register(["fp-0", "fp-1"])["worker_id"]
        assert table.grant(alpha)["granted"] == ["fp-0"]
        assert table.grant(alpha, release=["fp-0"])["granted"] == ["fp-1"]
        table.complete("fp-1")
        assert table.grant(alpha) == {"known": True, "granted": [], "done": True}
        beta = table.register(["fp-0"])["worker_id"]
        assert table.grant(beta) == {"known": True, "granted": ["fp-0"], "done": False}
        assert events.count("reassigned") == 1

    def test_release_of_another_workers_lease_is_ignored(self):
        table, _, events = make_table()
        alpha = table.register(["fp-0"])["worker_id"]
        beta = table.register(["fp-0"])["worker_id"]
        table.grant(alpha)
        table.grant(beta, release=["fp-0"])
        assert events.count("released") == 0
        assert events.held() == 1

    def test_a_fingerprint_released_unleased_is_kept_from_its_worker_only(self):
        """Releasing a fingerprint the worker does not hold ends no lease
        and counts no event, but that worker is never granted it."""
        table, _, events = make_table()
        alpha = table.register(["fp-0", "fp-1"])["worker_id"]
        assert table.grant(alpha, release=["fp-1"])["granted"] == ["fp-0"]
        table.complete("fp-0")
        assert table.grant(alpha) == {"known": True, "granted": [], "done": True}
        assert events.count("released") == 0
        beta = table.register(["fp-1"])["worker_id"]
        assert table.grant(beta)["granted"] == ["fp-1"]
        assert events.count("reassigned") == 0

    def test_an_orphaned_fingerprint_goes_only_to_a_worker_that_offered_it(self):
        """An expired lease is pending again, but only for workers whose
        offer holds it: a worker on another suite never runs it."""
        table, clock, events = make_table()
        dead = table.register(["fp-a"])["worker_id"]
        assert table.grant(dead)["granted"] == ["fp-a"]
        clock.advance(2.5)
        other = table.register(["fp-b"])["worker_id"]
        assert events.count("expired") == 1
        assert table.grant(other)["granted"] == ["fp-b"]
        table.complete("fp-b")
        assert table.grant(other) == {"known": True, "granted": [], "done": True}
        assert events.count("reassigned") == 0
        survivor = table.register(["fp-a"])["worker_id"]
        assert table.grant(survivor)["granted"] == ["fp-a"]
        assert events.count("reassigned") == 1

    def test_a_late_push_after_expiry_retires_the_orphan(self):
        """A worker that missed its heartbeats may still push its cell:
        the record completes the expired fingerprint, which then goes to
        no one."""
        table, clock, events = make_table()
        slow = table.register(["fp-a"])["worker_id"]
        table.grant(slow)
        clock.advance(2.5)
        survivor = table.register(["fp-a"])["worker_id"]  # sweeps the lease
        assert events.count("expired") == 1
        table.complete("fp-a")
        assert table.grant(survivor) == {"known": True, "granted": [], "done": True}
        assert events.count("reassigned") == 0
        # no lease was active any more, so no completion event either
        assert events.count("completed") == 0

    def test_complete_retires_the_lease(self):
        table, clock, events = make_table()
        alpha = table.register(["fp-0"])["worker_id"]
        table.grant(alpha)
        clock.advance(0.5)
        table.complete("fp-0")
        assert events.held() == 0
        assert events.events[-1] == ("completed", 0.5)
        # a completed fingerprint is never granted again
        grant = table.grant(alpha)
        assert grant["granted"] == [] and grant["done"] is True

    def test_complete_without_a_lease_counts_no_lease_event(self):
        """A non-fleet shard worker's push still informs the scheduler
        (the fingerprint is done) but must not tick lease metrics."""
        table, _, events = make_table()
        table.complete("fp-0")
        assert events.events == []
        alpha = table.register(["fp-0"])["worker_id"]
        assert table.grant(alpha)["done"] is True

    def test_done_only_when_offered_universe_is_completed(self):
        table, _, _ = make_table()
        alpha = table.register(["fp-0"])["worker_id"]
        beta = table.register(["fp-0"])["worker_id"]
        table.grant(alpha)
        # beta sees nothing pending, but alpha's lease is outstanding
        stalled = table.grant(beta)
        assert stalled["granted"] == [] and not stalled["done"]
        table.complete("fp-0")
        assert table.grant(beta)["done"] is True

    def test_a_sweep_reads_each_offered_fingerprint_a_bounded_number_of_times(self):
        """The grant never rescans the offer: leasing and completing every
        cell of an N-cell offer one at a time tests a linear number of
        completed-set memberships, not one per cell per grant."""
        for n in (500, 1000):
            table, _, _ = make_table()
            table._completed = CountingSet()
            worker = table.register([f"{i:016x}" for i in range(n)])["worker_id"]
            while granted := (reply := table.grant(worker))["granted"]:
                table.complete(granted[0])
            assert reply["done"] is True
            assert table._completed.checks <= 2 * n

    def test_an_orphan_no_worker_takes_is_not_rescanned(self):
        """A released fingerprint that no other worker offers stays
        pending, but a later worker's grants do not scan past it: only
        registering reads the orphans."""
        table, _, _ = make_table()
        table._orphaned = CountingDict()
        alpha = table.register(["fp-x"])["worker_id"]
        assert table.grant(alpha)["granted"] == ["fp-x"]
        assert table.grant(alpha, release=["fp-x"])["done"] is True
        worker = table.register([f"{i:016x}" for i in range(100)])["worker_id"]
        scans = table._orphaned.scans
        while granted := (reply := table.grant(worker))["granted"]:
            table.complete(granted[0])
        assert reply["done"] is True
        assert table._orphaned.scans == scans

    def test_a_done_worker_keeps_no_offer(self):
        """The grant that answers ``done`` removes the worker, so a server
        taking sweep after sweep holds no finished worker's offer.  The
        fleet worker stops at ``done``; a request under its id after that
        is told it is unknown."""
        table, _, _ = make_table()
        alpha = table.register(["fp-0", "fp-1"])["worker_id"]
        assert table.grant(alpha, release=["fp-1"])["granted"] == ["fp-0"]
        table.complete("fp-0")
        assert table.grant(alpha) == {"known": True, "granted": [], "done": True}
        assert alpha not in table._workers
        assert table.grant(alpha) == {"known": False, "granted": [], "done": False}
        assert table.heartbeat(alpha) == {"known": False}
        assert table.worker_counts() == {"alive": 0, "lost": 0}

    def test_a_finished_worker_is_neither_alive_nor_lost(self):
        """``fleet_workers`` counts the workers that may still lease: past
        the TTL a finished worker is not counted lost, so a lost count is
        a worker that stopped before its suite was done."""
        table, clock, _ = make_table()
        finished = table.register(["fp-0"])["worker_id"]
        killed = table.register(["fp-0", "fp-1"])["worker_id"]
        assert table.grant(finished)["granted"] == ["fp-0"]
        assert table.grant(killed)["granted"] == ["fp-1"]
        table.complete("fp-0")
        assert table.grant(finished)["done"] is True
        assert table.worker_counts() == {"alive": 1, "lost": 0}
        clock.advance(2.5)
        assert table.worker_counts() == {"alive": 0, "lost": 1}

    def test_a_lost_worker_is_forgotten_and_counted_once_when_it_returns(self):
        """The next registration forgets a lost worker's offer.  If the
        worker comes back it is told it is unknown, registers its offer
        again and takes up its expired lease; the gauge counts it once."""
        table, clock, events = make_table()
        lost = table.register(["fp-0", "fp-1"])["worker_id"]
        assert table.grant(lost)["granted"] == ["fp-0"]
        clock.advance(2.5)
        table.register(["fp-2"])  # expires fp-0, forgets the lost offer
        assert table._workers[lost].offered is None
        assert table.worker_counts() == {"alive": 1, "lost": 1}
        assert table.grant(lost) == {"known": False, "granted": [], "done": False}
        again = table.register(["fp-0", "fp-1"])["worker_id"]
        assert table.worker_counts() == {"alive": 2, "lost": 0}
        assert table.grant(again)["granted"] == ["fp-0"]
        assert events.count("reassigned") == 1

    def test_worker_counts_track_liveness(self):
        table, clock, _ = make_table()
        table.register([])
        clock.advance(3.0)
        table.register([])
        assert table.worker_counts() == {"alive": 1, "lost": 1}

    def test_a_lease_request_keeps_its_worker_alive(self):
        """Liveness counts lease requests, not only heartbeats."""
        table, clock, _ = make_table()
        alpha = table.register(["fp-0"])["worker_id"]
        clock.advance(1.5)
        table.grant(alpha)
        clock.advance(1.5)  # 3.0 s since it registered, 1.5 s since it leased
        assert table.worker_counts() == {"alive": 1, "lost": 0}
        clock.advance(1.0)
        assert table.worker_counts() == {"alive": 0, "lost": 1}

    def test_oldest_lease_age_feeds_the_stuck_slo(self):
        table, clock, _ = make_table()
        alpha = table.register(["fp-0"])["worker_id"]
        table.grant(alpha)
        assert table.oldest_lease_age_s() == 0.0
        clock.advance(7.0)
        # deliberately unswept: the age is visible even past the TTL
        assert table.oldest_lease_age_s() == 7.0


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
    return ServiceClient(collector.endpoint, token=TOKEN)


def lease_fates(collector) -> Recorder:
    """The collector's ``fleet_leases_total`` counters, read off its
    scrape, as a :class:`Recorder` of that many events per fate."""
    samples = parse_exposition(collector.registry.render())
    fates = Recorder()
    for fate in ("granted", "renewed", "expired", "released", "reassigned", "completed"):
        count = sum_samples(samples, "fleet_leases_total", fate=fate)
        fates.events.extend([(fate, None)] * int(count))
    return fates


def register(client, fingerprints) -> str:
    """Register a worker offering ``fingerprints``; returns its id."""
    reply = client.request({"op": "register", "fingerprints": list(fingerprints)})
    return reply["worker_id"]


def lease(client, worker_id, release=()) -> dict:
    return client.request(
        {"op": "lease", "worker_id": worker_id, "release": list(release)}
    )


def is_done(client, fingerprints) -> bool:
    """Whether the server holds every one of ``fingerprints`` completed,
    as a fresh worker offering them is told."""
    return lease(client, register(client, fingerprints))["done"]


class TestCollectorFleetVerbs:
    def test_register_heartbeat_lease_round_trip(self, collector):
        client = collector_client(collector)
        reply = client.request({"op": "register", "fingerprints": ["fp-0", "fp-1"]})
        worker_id = reply["worker_id"]
        assert reply == {
            "ok": True, "worker_id": worker_id, "heartbeat_interval_s": 0.2,
        }
        beat = client.request({"op": "heartbeat", "worker_id": worker_id})
        assert beat == {"ok": True, "known": True}
        grant = lease(client, worker_id)
        assert grant == {"ok": True, "known": True, "granted": ["fp-0"], "done": False}
        assert lease_fates(collector).held() == 1
        assert sum(collector.leases.worker_counts().values()) == 1

    def test_a_lease_request_carrying_removed_fields_is_granted_one_cell(
        self, collector
    ):
        """The removed ``limit`` and ``fingerprints`` fields are ignored
        like any unknown field: the offer is the one registered."""
        client = collector_client(collector)
        worker_id = register(client, [f"fp-{i}" for i in range(6)])
        grant = client.request({
            "op": "lease", "worker_id": worker_id,
            "fingerprints": ["fp-other"], "limit": 5,
        })
        assert grant["granted"] == ["fp-0"]

    @pytest.mark.parametrize("op", ["fleet_status", "submit"])
    def test_removed_verbs_are_unknown_ops(self, collector, op):
        with pytest.raises(ServiceError, match=f"unknown op '{op}'") as info:
            collector_client(collector).request({"op": op, "suite": "paper-claims"})
        assert "register/heartbeat/lease/shutdown" in str(info.value)
        assert "submit" not in str(info.value).split("expected")[1]

    def test_lease_verb_grants_a_repeated_fingerprint_once(self, collector):
        client = collector_client(collector)
        worker_id = register(client, ["fp-b", "fp-a", "fp-b"])
        assert lease(client, worker_id)["granted"] == ["fp-b"]
        assert lease(client, worker_id)["granted"] == ["fp-a"]
        assert lease(client, worker_id)["granted"] == []
        assert lease_fates(collector).held() == 2
        assert 'fleet_leases_total{fate="granted"} 2' in client.metrics()

    def test_unknown_worker_is_known_false_not_an_error(self, collector):
        client = collector_client(collector)
        beat = client.request({"op": "heartbeat", "worker_id": "worker-404"})
        assert beat["known"] is False
        grant = lease(client, "worker-404")
        assert grant["known"] is False and grant["granted"] == []

    def test_push_completes_the_lease(self, collector):
        client = collector_client(collector)
        result = make_result(seed=1)
        lease(client, register(client, [result.fingerprint]))
        assert lease_fates(collector).held() == 1
        push(client, [result.to_record()])
        assert lease_fates(collector).held() == 0
        assert lease_fates(collector).count("completed") == 1

    def test_every_push_fate_completes_idempotently(self, collector):
        """Every ingest fate — even a dropped duplicate — leaves a
        fingerprint whose kept record is verified done in the scheduler
        (the cell ran *somewhere*), and repeat pushes do not double-count
        completion events."""
        client = collector_client(collector)
        verified = make_result(seed=1, verified=True)
        lease(client, register(client, [verified.fingerprint]))
        assert collector.ingest(verified.to_record()) == "accepted"
        assert lease_fates(collector).count("completed") == 1
        unverified = make_result(seed=1, verified=False)
        assert collector.ingest(unverified.to_record()) == "dropped"
        assert is_done(client, [verified.fingerprint])
        assert lease_fates(collector).held() == 0
        # the second push found no active lease: no second event
        assert lease_fates(collector).count("completed") == 1

    def test_only_a_verified_record_completes_the_cell(self, tmp_path):
        """A pushed record always retires its lease, but the cell is
        completed only when the record kept for it is verified, as at a
        restart: after an unverified push a worker that registers later
        is granted the cell and the worker that pushed it is not; after a
        verified push no later worker is."""
        collector = ResultCollector(out=tmp_path / "central")
        fingerprint = make_result(seed=1).fingerprint

        def ask(request):
            reply = collector._dispatch(json.loads(json.dumps(request)))
            assert reply["ok"], reply
            return reply

        def new_worker():
            return ask({"op": "register", "fingerprints": [fingerprint]})["worker_id"]

        def grant(worker_id):
            reply = ask({"op": "lease", "worker_id": worker_id, "release": []})
            return reply["granted"], reply["done"]

        def push_record(verified):
            record = make_result(seed=1, verified=verified).to_record()
            ask({"op": "push", "records": [record]})

        first = new_worker()
        assert grant(first) == ([fingerprint], False)
        push_record(verified=False)
        assert lease_fates(collector).held() == 0
        second = new_worker()
        assert grant(second) == ([fingerprint], False)
        # Not waiting on the second worker's lease: the cell is no longer
        # the first worker's to run.
        assert grant(first) == ([], True)
        push_record(verified=True)
        assert grant(second) == ([], True)
        assert grant(new_worker()) == ([], True)
        assert lease_fates(collector).count("completed") == 2

    @pytest.mark.parametrize("payload,match", [
        ({"op": "register"}, "fingerprints"),
        ({"op": "register", "worker": "w1"}, "fingerprints"),
        ({"op": "register", "fingerprints": "fp"}, "fingerprints"),
        ({"op": "register", "fingerprints": [1]}, "fingerprints"),
        ({"op": "register", "fingerprints": [""]}, "fingerprints"),
        ({"op": "heartbeat"}, "worker_id"),
        ({"op": "heartbeat", "worker_id": 3}, "worker_id"),
        ({"op": "lease"}, "worker_id"),
        ({"op": "lease", "worker_id": "w", "release": "x"}, "release"),
        ({"op": "lease", "worker_id": "w", "release": [1]}, "release"),
    ])
    def test_malformed_fleet_requests_are_errors(self, collector, payload, match):
        with pytest.raises(ServiceError, match=match):
            collector_client(collector).request(payload)

    def test_fleet_metrics_exported(self, collector):
        client = collector_client(collector)
        result = make_result(seed=1)
        lease(client, register(client, [result.fingerprint]))
        push(client, [result.to_record()])
        text = client.metrics()
        assert 'fleet_workers{state="alive"} 1' in text
        assert 'fleet_leases_total{fate="granted"} 1' in text
        assert 'fleet_leases_total{fate="completed"} 1' in text
        assert "fleet_oldest_lease_age_seconds 0" in text
        assert "fleet_lease_ttl_seconds 0.4" in text
        assert "fleet_lease_age_seconds_count 1" in text

    def test_a_sweep_sends_request_bytes_linear_in_its_cells(self, tmp_path):
        """The offer travels once, at ``register``: leasing and completing
        every cell of an N-cell offer one at a time, JSON-encoded through
        the verb table, sends about twice the bytes at 2N as at N (the
        offer sent with every lease made it four times)."""

        def sweep_bytes(n: int) -> int:
            collector = ResultCollector(out=tmp_path / f"sweep-{n}")
            sent = 0

            def ask(request):
                nonlocal sent
                line = json.dumps(request)
                sent += len(line) + 1
                reply = collector._dispatch(json.loads(line))
                assert reply["ok"], reply
                return reply

            worker_id = ask({
                "op": "register",
                "fingerprints": [f"{i:016x}" for i in range(n)],
            })["worker_id"]
            completed = 0
            while True:
                reply = ask({"op": "lease", "worker_id": worker_id, "release": []})
                if not reply["granted"]:
                    break
                record = make_result(completed, fingerprint=reply["granted"][0])
                ask({"op": "push", "records": [record.to_record()]})
                completed += 1
            assert completed == n and reply["done"]
            return sent

        assert sweep_bytes(2000) <= 2.1 * sweep_bytes(1000)


class TestCollectorSinkErrors:
    """Satellite pin: only *transport* failures trigger the sink's
    reconnect-once retry; a server error response propagates at once."""

    def serve(self, tmp_path, handler, close_after=None):
        server = LineServer(handler, name="sink-test", close_after=close_after)
        endpoint = server.bind(tmp_path / "sink.sock")
        server.start()
        return server, endpoint

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

    def test_transport_error_is_a_service_error_subclass(self):
        assert issubclass(ServiceTransportError, ServiceError)


class TestMalformedStoreRestart:
    def test_collector_restart_skips_and_counts_bad_records(self, tmp_path):
        """A line in the store that is no cell record (no fingerprint, a
        fingerprint without the other fields, or telemetry the server
        could not observe) must not brick the restart — it is skipped,
        counted and surfaced."""
        store_dir = tmp_path / "central"
        good = make_result(seed=1)
        bad = {"seed": 2, "rounds": 3.0}  # fingerprint missing
        empty = dict(good.to_record(), fingerprint="")
        fingerprint_only = {"fingerprint": make_result(seed=3).fingerprint,
                            "verified": True}
        telemetry = [
            dict(make_result(seed=10 + index).to_record(), **param.values[0])
            for index, param in enumerate(MALFORMED_TELEMETRY)
        ]
        store_dir.mkdir()
        with open(store_dir / "results.jsonl", "w") as handle:
            for record in (good.to_record(), bad, empty, fingerprint_only, *telemetry):
                handle.write(json.dumps(record) + "\n")
        collector = ResultCollector(
            out=store_dir, listen="127.0.0.1:0", token=TOKEN
        )
        collector.start()
        try:
            client = collector_client(collector)
            assert client.status()["records"] == 1
            assert "collector_store_malformed_records 9\n" in client.metrics()
            assert client.report()["all_verified"] is True
            # the surviving verified record still seeds the lease table
            assert is_done(client, [good.fingerprint])
        finally:
            collector.close()


def run_fleet_worker(suite, store, collector, **kwargs):
    worker = FleetWorker(
        suite, store, str(collector.endpoint), token=TOKEN, **kwargs
    )
    return worker, worker.run()


class FakeLessor:
    """Answers a fleet worker's requests from a table of replies by op,
    recording every request; a list of replies is answered in order."""

    def __init__(self, stop=None, **replies):
        self.replies = replies
        self.requests: list[dict] = []
        self._stop = stop

    def __call__(self, request):
        self.requests.append(request)
        if self._stop is not None:
            self._stop.set()
        reply = self.replies[request["op"]]
        return reply.pop(0) if isinstance(reply, list) else reply

    def ops(self) -> list[str]:
        return [request["op"] for request in self.requests]


class InstantPool:
    """Stands in for a :class:`WorkerPool`: runs each cell it pulls at
    once; with ``break_after`` it raises after that many outcomes, having
    pulled one more cell."""

    def __init__(self, break_after: int | None = None) -> None:
        self.break_after = break_after

    def submit_sweep(self, suite_name, cells):
        for index, cell in enumerate(cells):
            if index == self.break_after:
                raise RuntimeError("the pool broke")
            result = make_result(index, fingerprint=cell.fingerprint)
            yield CellOutcome(cell=cell, result=result, error=None)


class TestFleetWorkerProtocol:
    """The worker's side of the protocol, against a fake lessor: no
    server, no pool, no sleeps."""

    def worker(self, tmp_path) -> FleetWorker:
        worker = FleetWorker(TINY, ResultStore(tmp_path), "unused.sock")
        worker._cells = {cell.fingerprint: cell for cell in TINY.cells()}
        worker.worker_id = "worker-1"
        return worker

    def test_a_heartbeat_answered_unknown_sends_no_register(self, tmp_path):
        """After a server restart only the lease path registers again: a
        heartbeat thread that registered too would leave the server a
        second id that never heartbeats, a phantom lost worker holding a
        second copy of the offer."""
        worker = self.worker(tmp_path)
        worker.heartbeat_interval_s = 0.0
        worker._request = FakeLessor(
            stop=worker._stop, heartbeat={"ok": True, "known": False},
        )
        worker._heartbeat_loop()  # one beat: the lessor stops the loop
        assert worker._request.ops() == ["heartbeat"]
        assert worker.worker_id == "worker-1"

    def test_a_failed_heartbeat_is_swallowed(self, tmp_path):
        worker = self.worker(tmp_path)
        worker.heartbeat_interval_s = 0.0

        def unreachable(request):
            worker._stop.set()
            raise ServiceTransportError("the server is restarting")

        worker._request = unreachable
        worker._heartbeat_loop()

    def test_the_lease_path_re_registers_the_offer_without_failed_cells(
        self, tmp_path
    ):
        worker = self.worker(tmp_path)
        failed = TINY.cells()[0].fingerprint
        del worker._cells[failed]
        worker._released = [failed]
        worker._request = FakeLessor(
            lease={"ok": True, "known": False, "granted": [], "done": False},
            register={"ok": True, "worker_id": "worker-9",
                      "heartbeat_interval_s": 0.5},
        )
        # Told unknown again under the new id, it returns no cell rather
        # than registering in a loop.
        assert worker._lease() == (None, False)
        lease_request, register_request, again = worker._request.requests
        assert lease_request == {
            "op": "lease", "worker_id": "worker-1", "release": [failed],
        }
        assert register_request == {
            "op": "register",
            "fingerprints": [cell.fingerprint for cell in TINY.cells()[1:]],
        }
        assert again == {"op": "lease", "worker_id": "worker-9", "release": []}
        assert worker.worker_id == "worker-9"
        assert worker.heartbeat_interval_s == 0.5
        assert worker._released == []

    def test_a_worker_told_unknown_leases_again_once_registered(self, tmp_path):
        """After a server restart the lease that finds the worker unknown
        registers it and leases at once, so the granted cell comes back
        on the same call instead of after half a heartbeat."""
        worker = self.worker(tmp_path)
        cell = TINY.cells()[1]
        worker._request = FakeLessor(
            lease=[
                {"ok": True, "known": False, "granted": [], "done": False},
                {"ok": True, "known": True, "granted": [cell.fingerprint],
                 "done": False},
            ],
            register={"ok": True, "worker_id": "worker-9",
                      "heartbeat_interval_s": 0.5},
        )
        assert worker._lease() == (cell, False)
        assert worker._request.ops() == ["lease", "register", "lease"]
        assert worker._request.requests[-1]["worker_id"] == "worker-9"

    def test_two_workers_on_other_suites_survive_a_restart_in_any_order(
        self, tmp_path
    ):
        """A server restart under two live workers on different suites:
        the one that asks second is told it is unknown too, and each is
        then granted only cells of its own suite."""
        server = {"collector": ResultCollector(out=tmp_path / "before")}

        def ask(request):
            return server["collector"]._dispatch(json.loads(json.dumps(request)))

        workers = []
        for index, suite in enumerate((TINY, get_suite("lower-bound"))):
            worker = FleetWorker(suite, ResultStore(tmp_path / f"w{index}"), "unused.sock")
            worker._cells = {cell.fingerprint: cell for cell in suite.cells(smoke=True)}
            worker._request = ask
            worker._register()
            workers.append(worker)
        alpha, beta = workers
        server["collector"] = ResultCollector(out=tmp_path / "after")  # restart
        # beta registers again first; each is granted its own cells on the
        # call that found it unknown, and on the next
        for worker in (beta, alpha, alpha, beta):
            cell, done = worker._lease()
            assert worker._cells[cell.fingerprint] == cell and not done

    def test_a_grant_it_does_not_offer_is_a_service_error(self, tmp_path):
        """A grant outside the worker's offer means the server took it for
        another worker: the run stops with a service error, which the CLI
        reports, not with a KeyError traceback."""
        worker = self.worker(tmp_path)
        worker._request = FakeLessor(lease={
            "ok": True, "known": True, "granted": ["0" * 16], "done": False,
        })
        with pytest.raises(ServiceError, match="does not offer"):
            worker._lease()

    def test_a_grant_maps_back_to_its_cell(self, tmp_path):
        worker = self.worker(tmp_path)
        cell = TINY.cells()[2]
        worker._request = FakeLessor(lease={
            "ok": True, "known": True, "granted": [cell.fingerprint],
            "done": False,
        })
        assert worker._lease() == (cell, False)
        assert worker._request.requests == [
            {"op": "lease", "worker_id": "worker-1", "release": []},
        ]

    def test_failed_cells_are_released_on_the_next_request_only(self, tmp_path):
        worker = self.worker(tmp_path)
        failed = TINY.cells()[0].fingerprint
        worker._released = [failed]
        worker._request = FakeLessor(
            lease={"ok": True, "known": True, "granted": [], "done": False},
        )
        worker._lease()
        worker._lease()
        assert [request["release"] for request in worker._request.requests] == [
            [failed], [],
        ]

    def test_a_lease_request_that_fails_mid_sweep_ends_the_sweep(self, tmp_path):
        """A lost server is no cell's failure: the error propagates out of
        the sweep instead of failing the cells still running."""
        worker = self.worker(tmp_path)
        first = TINY.cells()[0]

        def unreachable(request):
            raise ServiceTransportError("the server went away")

        worker._request = unreachable
        outcomes = worker._sweep(InstantPool(), first)
        assert next(outcomes).cell == first
        with pytest.raises(ServiceTransportError, match="went away"):
            next(outcomes)

    def test_a_broken_pool_fails_only_the_cells_without_an_outcome(self, tmp_path):
        worker = self.worker(tmp_path)
        first, second = TINY.cells()[:2]
        worker._request = FakeLessor(lease={
            "ok": True, "known": True, "granted": [second.fingerprint],
            "done": False,
        })
        outcomes = list(worker._sweep(InstantPool(break_after=1), first))
        assert [(outcome.cell, outcome.ok) for outcome in outcomes] == [
            (first, True), (second, False),
        ]
        assert "the pool broke" in outcomes[1].error


class TestFleetWorkerEndToEnd:
    def test_single_worker_completes_the_suite(self, collector, tmp_path):
        store = ResultStore(tmp_path / "w1")
        worker, report = run_fleet_worker(TINY, store, collector, jobs=2)
        total = len(TINY.cells())
        assert report.ok
        assert report.executed == total and report.skipped == 0
        assert worker.pushed == total
        assert re.fullmatch(first_worker_id(), worker.worker_id)
        assert len(store) == total
        assert len(ResultStore(tmp_path / "central")) == total
        fates = lease_fates(collector)
        assert fates.held() == 0
        assert fates.count("completed") == total
        assert is_done(collector_client(collector), [c.fingerprint for c in TINY.cells()])
        # It registered once (its id is the first), and the grant that
        # answered done removed it: it is neither alive nor lost.
        assert collector.leases.worker_counts() == {"alive": 0, "lost": 0}

    def test_two_jobs_run_two_leased_cells_at_once(
        self, collector, tmp_path, monkeypatch
    ):
        """Two leased cells on two workers run at once: each cell waits
        at a barrier for the other."""
        suite = meeting_suite(monkeypatch)
        worker, report = run_fleet_worker(
            suite, ResultStore(tmp_path / "meet"), collector, jobs=2,
        )
        assert report.ok and report.executed == 2
        assert worker.pushed == 2

    def test_a_worker_leases_one_cell_per_pool_pull(
        self, collector, tmp_path, monkeypatch
    ):
        """The pool keeps two cells per process in flight and may pull the
        next before the finished one is pushed, so a one-process worker
        never holds more than three leases, however many cells the suite
        has left."""
        held = []
        grant = collector.leases.grant

        def counting_grant(worker_id, **kwargs):
            reply = grant(worker_id, **kwargs)
            # This is the only worker, so every active lease is its own.
            held.append(len(collector.leases._leases))
            return reply

        monkeypatch.setattr(collector.leases, "grant", counting_grant)
        worker, report = run_fleet_worker(
            TINY, ResultStore(tmp_path / "lazy"), collector, jobs=1
        )
        assert report.ok and report.executed == len(TINY.cells()) == 5
        assert max(held) <= 3

    def test_a_failed_push_aborts_the_run(self, collector, tmp_path, monkeypatch):
        """A fleet push that fails stops the worker; the cell it could
        not push is already in the local store, and the pool is shut
        down."""
        def refuse(sink, result):
            raise ServiceError("collector refused the push")

        monkeypatch.setattr(CollectorSink, "__call__", refuse)
        store = ResultStore(tmp_path / "refused")
        with pytest.raises(ServiceError, match="refused"):
            run_fleet_worker(TINY, store, collector, jobs=2)
        assert len(store) == 1
        assert multiprocessing.active_children() == []

    def test_a_push_the_store_refuses_aborts_and_the_server_keeps_serving(
        self, tmp_path
    ):
        """A push whose append fails (an unwritable ``--out``) is answered
        with an error: the worker stops with it, nothing reaches the
        server's store, and the server goes on answering."""
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        with ResultCollector(
            out=blocked / "sub", listen="127.0.0.1:0", token=TOKEN
        ) as server:
            with pytest.raises(ServiceError, match="Error"):
                run_fleet_worker(TINY, ResultStore(tmp_path / "w"), server, jobs=1)
            client = collector_client(server)
            assert client.status()["records"] == 0
            with pytest.raises(ServiceError, match="no results"):
                client.report()
            assert "collector_records_ingested_total 0" in client.metrics()
        assert not (blocked / "sub").exists()
        assert multiprocessing.active_children() == []

    def test_a_broken_pool_fails_and_releases_the_cells_it_leased(
        self, collector, tmp_path, monkeypatch
    ):
        """The pool itself raising (a failed fork, say) fails each leased
        cell with the error and releases it: the worker ends its run with
        every cell failed and no lease held."""
        def broken(self, suite_name, cells):
            raise OSError("fork failed")

        monkeypatch.setattr(WorkerPool, "submit_sweep", broken)
        worker, report = run_fleet_worker(
            TINY, ResultStore(tmp_path / "broken"), collector, jobs=1,
        )
        total = len(TINY.cells())
        assert report.executed == 0
        assert len(report.failures) == total
        assert all("fork failed" in failure.error for failure in report.failures)
        fates = lease_fates(collector)
        assert fates.count("released") == total
        assert fates.held() == 0
        assert collector_client(collector).status()["records"] == 0

    def test_dead_workers_leases_are_reassigned_and_report_is_identical(
        self, collector, tmp_path, capsys
    ):
        """The elastic acceptance bar: a worker that leases cells and
        dies without heartbeating loses them to the survivor, the suite
        finishes with no lost cells, and the collector's report is
        byte-identical to a plain single-machine run's."""
        client = collector_client(collector)
        dead_id = register(client, [cell.fingerprint for cell in TINY.cells()])
        grabbed = {
            fingerprint
            for _ in range(3)
            for fingerprint in lease(client, dead_id)["granted"]
        }
        assert len(grabbed) == 3
        # ... the worker dies here: no heartbeat ever arrives

        store = ResultStore(tmp_path / "survivor")
        worker, report = run_fleet_worker(TINY, store, collector, jobs=2)
        total = len(TINY.cells())
        assert report.ok and report.executed == total
        fates = lease_fates(collector)
        assert fates.count("expired") >= 3
        assert fates.count("reassigned") >= 3
        assert len(ResultStore(tmp_path / "central")) == total
        assert collector.leases.worker_counts()["lost"] >= 1

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
            push(client, [result.to_record()])
            done += 1
        replacement = ResultStore(tmp_path / "replacement")
        worker, report = run_fleet_worker(TINY, replacement, collector, jobs=1)
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
        worker, report = run_fleet_worker(suite, store, collector, jobs=1)
        assert not report.ok
        assert len(report.failures) == 1
        assert "boom" in report.failures[0].error
        assert report.executed == 1
        # the failed fingerprint went back to the fleet, not into limbo
        fates = lease_fates(collector)
        assert fates.count("released") == 1
        assert fates.count("granted") == 2
        assert fates.held() == 0

    def test_cli_fleet_flag_is_exclusive_with_shard(self, capsys):
        assert main([
            "run", "paper-claims", "--smoke",
            "--fleet", "127.0.0.1:1", "--shard", "0/2",
        ]) == 2
        assert "--fleet replaces" in capsys.readouterr().err

    @pytest.mark.parametrize("endpoint,message", [
        ("127.0.0.1:99999", "out of range"),
        ("{tmp}/a-file/fleet.sock", "cannot reach"),
    ])
    def test_a_bad_or_unreachable_endpoint_leaks_no_pool(
        self, tmp_path, capsys, endpoint, message
    ):
        """The endpoint is parsed before the pool forks, and registering
        happens inside the run's cleanup scope: neither failure leaves a
        worker process behind."""
        (tmp_path / "a-file").write_text("not a directory")
        assert main([
            "run", "paper-claims", "--smoke", "--jobs", "2", "--quiet",
            "--out", str(tmp_path / "store"),
            "--fleet", endpoint.format(tmp=tmp_path),
        ]) == 2
        assert message in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_cli_fleet_run_end_to_end(self, collector, tmp_path, capsys):
        endpoint = str(collector.endpoint)
        code = main([
            "run", "lower-bound", "--smoke",
            "--fleet", endpoint, "--token", TOKEN,
            "--out", str(tmp_path / "cli-store"), "--jobs", "1", "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert f"[fleet {endpoint}]" in out
        assert re.search(
            rf"record\(s\) to fleet {endpoint} as {first_worker_id()}\n", out
        )
        total = len(get_suite("lower-bound").cells(smoke=True))
        assert len(ResultStore(tmp_path / "central")) == total


class TestLeaseStuckSLO:
    def evaluate(self, samples):
        results = {r.name: r for r in evaluate_slos(samples)}
        return results["lease-stuck"]

    @staticmethod
    def scrape(collector):
        return parse_exposition(collector_client(collector).metrics())

    def test_no_fleet_data_passes(self):
        verdict = self.evaluate([])
        assert verdict.ok and verdict.no_data

    def test_healthy_collector_scrape_passes(self, collector):
        client = collector_client(collector)
        lease(client, register(client, ["fp-0"]))
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
            lease(client, register(client, ["fp-0"]))
            clock.advance(5.0)  # ttl is 0.4s; 5s >> 3x budget
            verdict = self.evaluate(self.scrape(collector))
        finally:
            collector.close()
        assert not verdict.ok
        assert "oldest active lease" in verdict.detail

    def test_slo_roster_includes_lease_stuck(self):
        assert "lease-stuck" in {slo.name for slo in DEFAULT_SLOS}

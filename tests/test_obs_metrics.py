"""Unit suite for the observability layer: registry primitives, the
Prometheus text exposition (pinned against a golden file), the matching
parser, quantile estimation and the SLO definitions."""

import math
import threading
from pathlib import Path

import pytest

from repro.obs import (
    MetricsRegistry,
    evaluate_slos,
    histogram_quantile,
    parse_exposition,
)
from repro.obs.metrics import Sample, pooled_buckets, samples_named, sum_samples
from repro.obs.slo import DEFAULT_SLOS

GOLDEN = Path(__file__).parent / "golden" / "metrics.prom"


def build_demo_registry() -> MetricsRegistry:
    """The deterministic registry the golden exposition pins."""
    registry = MetricsRegistry()
    registry.gauge("demo_depth", "Current queue depth.").set_function(lambda: 3)
    latency = registry.histogram(
        "demo_latency_seconds",
        "Latency with backslash \\ and\nnewline in help.",
        ("verb",),
        buckets=(0.01, 0.1, 1.0),
    )
    for value in (0.005, 0.05, 2.0):
        latency.labels(verb="ping").observe(value)
    latency.labels(verb="push").observe(0.05)
    requests = registry.counter(
        "demo_requests_total",
        "Requests handled, by verb and outcome.",
        ("verb", "outcome"),
    )
    requests.labels(verb="ping", outcome="ok").inc()
    requests.labels(verb="ping", outcome="ok").inc()
    requests.labels(verb='pu"sh\\odd\nname', outcome="error").inc()
    return registry


class TestExposition:
    def test_golden_exposition(self):
        """HELP/TYPE lines, label escaping, bucket cumulativity — exact."""
        assert build_demo_registry().render() == GOLDEN.read_text(encoding="utf-8")

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "x", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            histogram.observe(value)
        samples = parse_exposition(registry.render())
        by_le = {
            sample.label("le"): sample.value
            for sample in samples_named(samples, "h_bucket")
        }
        assert by_le == {"1": 1, "2": 2, "+Inf": 3}
        assert sum_samples(samples, "h_count") == 3
        assert sum_samples(samples, "h_sum") == pytest.approx(101.0)

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""

    def test_function_gauge_reads_live(self):
        registry = MetricsRegistry()
        box = {"value": 1}
        registry.gauge("g", "x").set_function(lambda: box["value"])
        assert "g 1\n" in registry.render()
        box["value"] = 9
        assert "g 9\n" in registry.render()

    def test_counter_refuses_decrement(self):
        counter = MetricsRegistry().counter("c_total", "x")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad-name", "x")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok_total", "x", ("bad-label",))

    def test_reregistration_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "x", ("a",))
        assert registry.counter("c_total", "x", ("a",)) is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("c_total", "x", ("a",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("c_total", "x", ("other",))

    def test_wrong_labels_rejected(self):
        counter = MetricsRegistry().counter("c_total", "x", ("a",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.labels(b="1")
        with pytest.raises(ValueError, match="labelled"):
            counter.inc()

    def test_labelled_gauge_children_go_up_and_down(self):
        """The server's connection gauge: one child per server name."""
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "x", ("server",))
        gauge.labels(server="a").inc()
        gauge.labels(server="a").inc()
        gauge.labels(server="a").dec()
        gauge.labels(server="b").inc(3)
        assert 'g{server="a"} 1\n' in registry.render()
        assert 'g{server="b"} 3\n' in registry.render()

    def test_concurrent_increments_do_not_lose_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "x")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert "c_total 8000\n" in registry.render()


class TestParser:
    def test_round_trips_the_golden_registry(self):
        samples = parse_exposition(build_demo_registry().render())
        assert sum_samples(samples, "demo_requests_total") == 3
        odd = [
            sample
            for sample in samples_named(samples, "demo_requests_total")
            if sample.label("outcome") == "error"
        ]
        assert odd[0].label("verb") == 'pu"sh\\odd\nname'

    def test_inf_values(self):
        samples = parse_exposition("x 3\ny +Inf\n")
        assert samples[1].value == math.inf

    def test_unparseable_line_raises(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_exposition("this is not a metric line\n")

    def test_comments_and_blanks_skipped(self):
        assert parse_exposition("# HELP x y\n\n# TYPE x counter\n") == []


class TestQuantile:
    def test_linear_interpolation(self):
        buckets = [(1.0, 10), (2.0, 20), (math.inf, 20)]
        assert histogram_quantile(0.5, buckets) == pytest.approx(1.0)
        assert histogram_quantile(0.75, buckets) == pytest.approx(1.5)

    def test_empty_histogram_is_none(self):
        assert histogram_quantile(0.99, []) is None
        assert histogram_quantile(0.99, [(1.0, 0), (math.inf, 0)]) is None

    def test_quantile_in_inf_bucket_clamps_to_last_finite_bound(self):
        # Half the mass is finite, so the estimator can clamp to the
        # largest finite bound when the quantile lands in +Inf.
        buckets = [(1.0, 5), (math.inf, 10)]
        assert histogram_quantile(0.99, buckets) == 1.0

    def test_all_mass_in_inf_bucket_is_none(self):
        # No finite bound ever saw an observation: there is no honest
        # numeric answer, so the documented sentinel is None.
        assert histogram_quantile(0.99, [(1.0, 0), (math.inf, 5)]) is None
        assert histogram_quantile(0.5, [(math.inf, 3)]) is None

    def test_non_monotone_cumulative_counts_are_none(self):
        # Cumulative counts must not decrease; a corrupt or misjoined
        # scrape that does is refused rather than interpolated.
        buckets = [(1.0, 10), (2.0, 4), (math.inf, 12)]
        assert histogram_quantile(0.5, buckets) is None

    def test_negative_counts_are_none(self):
        assert histogram_quantile(0.5, [(1.0, -3), (math.inf, 5)]) is None

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(ValueError):
            histogram_quantile(1.5, [(1.0, 1)])


def sample(name, value, **labels):
    return Sample(name=name, labels=tuple(labels.items()), value=value)


def latency(verb, *buckets):
    """``service_request_seconds`` bucket samples of one verb from
    ``(le, cumulative count)`` pairs."""
    return [
        sample("service_request_seconds_bucket", count, verb=verb, le=le)
        for le, count in buckets
    ]


class TestPooledBuckets:
    def test_sums_each_bound_across_label_sets(self):
        registry = MetricsRegistry()
        family = registry.histogram("h", "x", ("verb",), buckets=(0.1, 1.0))
        family.labels(verb="ping").observe(0.05)
        family.labels(verb="push").observe(0.5)
        family.labels(verb="push").observe(5.0)
        pooled = pooled_buckets(parse_exposition(registry.render()), "h")
        assert pooled == {0.1: 1, 1.0: 2, math.inf: 3}

    def test_absent_family_is_empty(self):
        assert pooled_buckets([sample("other_bucket", 1, le="1")], "h") == {}

    def test_reads_only_the_family_bucket_samples(self):
        scrape = [
            sample("h_bucket", 2, le="1"),
            sample("h_bucket", 2, le="+Inf"),
            sample("h_bucket", 7),  # no le: not a bucket line
            sample("h_count", 2),
            sample("h_sum", 0.4),
            sample("h_other_bucket", 5, le="1"),
        ]
        assert pooled_buckets(scrape, "h") == {1.0: 2, math.inf: 2}

    def test_pooled_p99_differs_from_any_one_series(self):
        # One slow request among a hundred: the verb's own p99 is slow,
        # the family's pooled p99 is not.
        scrape = [
            *latency("ping", ("0.01", 99), ("30", 99), ("+Inf", 99)),
            *latency("submit", ("0.01", 0), ("30", 1), ("+Inf", 1)),
        ]
        pooled = pooled_buckets(scrape, "service_request_seconds")
        assert histogram_quantile(0.99, pooled.items()) == pytest.approx(0.01)
        submit_only = [s for s in scrape if s.label("verb") == "submit"]
        alone = pooled_buckets(submit_only, "service_request_seconds")
        assert histogram_quantile(0.99, alone.items()) > 5.0


class TestSLOs:
    def test_all_pass_on_empty_scrape(self):
        results = evaluate_slos([])
        assert all(result.ok for result in results)
        assert all("no data" in result.detail for result in results)
        assert len(results) == len(DEFAULT_SLOS)

    def test_dropped_records_burn(self):
        results = {
            result.name: result
            for result in evaluate_slos([
                sample("collector_records_total", 2, fate="dropped"),
            ])
        }
        assert not results["zero-dropped-records"].ok

    def test_conflict_rate_burns_over_budget(self):
        scrape = [
            sample("collector_records_ingested_total", 10),
            sample("collector_records_total", 2, fate="conflict"),
        ]
        results = {r.name: r for r in evaluate_slos(scrape)}
        assert not results["duplicate-conflict-rate"].ok
        scrape[1] = sample("collector_records_total", 0, fate="conflict")
        results = {r.name: r for r in evaluate_slos(scrape)}
        assert results["duplicate-conflict-rate"].ok

    def test_latency_p99_burns_when_slow(self):
        slow = [
            sample("service_request_seconds_bucket", 0, le="1"),
            sample("service_request_seconds_bucket", 100, le="30"),
            sample("service_request_seconds_bucket", 100, le="+Inf"),
        ]
        results = {r.name: r for r in evaluate_slos(slow)}
        assert not results["verb-latency-p99"].ok
        fast = [
            sample("service_request_seconds_bucket", 100, le="0.01"),
            sample("service_request_seconds_bucket", 100, le="+Inf"),
        ]
        results = {r.name: r for r in evaluate_slos(fast)}
        assert results["verb-latency-p99"].ok

    def test_malformed_and_auth_burn(self):
        scrape = [
            sample("service_malformed_lines_total", 1, server="x"),
            sample("service_auth_failures_total", 1, server="x"),
        ]
        results = {r.name: r for r in evaluate_slos(scrape)}
        assert not results["zero-malformed-lines"].ok
        assert not results["zero-auth-failures"].ok

    def test_roster_is_six_single_scrape_objectives(self):
        """The server runs no pool, so no objective reads pool restarts:
        on every server scrape it would read "no data"."""
        assert [slo.name for slo in DEFAULT_SLOS] == [
            "verb-latency-p99",
            "zero-dropped-records",
            "duplicate-conflict-rate",
            "zero-malformed-lines",
            "zero-auth-failures",
            "lease-stuck",
        ]
        burning = [sample("pool_worker_restarts_total", 1)]
        assert all(result.ok for result in evaluate_slos(burning))

    @pytest.mark.parametrize("objective,scrape,ok,no_data", [
        pytest.param("verb-latency-p99", [], True, True, id="latency-absent"),
        pytest.param(
            "verb-latency-p99", latency("push", ("1", 0), ("+Inf", 0)),
            True, True, id="latency-never-observed",
        ),
        pytest.param(
            "verb-latency-p99", latency("push", ("0.01", 100), ("+Inf", 100)),
            True, False, id="latency-fast",
        ),
        pytest.param(
            "verb-latency-p99",
            latency("push", ("1", 0), ("30", 100), ("+Inf", 100)),
            False, False, id="latency-slow",
        ),
        pytest.param(
            "verb-latency-p99",
            latency("push", ("1", 0), ("5", 99), ("10", 100), ("+Inf", 100)),
            True, False, id="latency-p99-at-budget",
        ),
        pytest.param(
            "verb-latency-p99",
            [
                *latency("ping", ("0.01", 99), ("30", 99), ("+Inf", 99)),
                *latency("submit", ("0.01", 0), ("30", 1), ("+Inf", 1)),
            ],
            True, False, id="latency-pooled-one-slow-in-a-hundred",
        ),
        pytest.param(
            "verb-latency-p99",
            [
                *latency("ping", ("0.01", 98), ("30", 98), ("+Inf", 98)),
                *latency("submit", ("0.01", 0), ("30", 2), ("+Inf", 2)),
            ],
            False, False, id="latency-pooled-two-slow-in-a-hundred",
        ),
        pytest.param("zero-dropped-records", [], True, True, id="dropped-absent"),
        pytest.param(
            "zero-dropped-records",
            [sample("collector_records_total", 5, fate="accepted")],
            True, False, id="dropped-accepted-only",
        ),
        pytest.param(
            "zero-dropped-records",
            [sample("collector_records_total", 0, fate="dropped")],
            True, False, id="dropped-zero",
        ),
        pytest.param(
            "zero-dropped-records",
            [sample("collector_records_total", 1, fate="dropped")],
            False, False, id="dropped-one",
        ),
        pytest.param(
            "duplicate-conflict-rate",
            [sample("collector_records_total", 3, fate="conflict")],
            True, True, id="conflict-without-ingest-counter",
        ),
        pytest.param(
            "duplicate-conflict-rate",
            [sample("collector_records_ingested_total", 0)],
            True, True, id="conflict-nothing-ingested",
        ),
        pytest.param(
            "duplicate-conflict-rate",
            [
                sample("collector_records_ingested_total", 20),
                sample("collector_records_total", 10, fate="duplicate"),
            ],
            True, False, id="conflict-duplicates-are-not-conflicts",
        ),
        pytest.param(
            "duplicate-conflict-rate",
            [
                sample("collector_records_ingested_total", 20),
                sample("collector_records_total", 1, fate="conflict"),
            ],
            True, False, id="conflict-rate-at-budget",
        ),
        pytest.param(
            "duplicate-conflict-rate",
            [
                sample("collector_records_ingested_total", 20),
                sample("collector_records_total", 2, fate="conflict"),
            ],
            False, False, id="conflict-rate-over-budget",
        ),
        *(
            case
            for objective, name in (
                ("zero-malformed-lines", "service_malformed_lines_total"),
                ("zero-auth-failures", "service_auth_failures_total"),
            )
            for case in (
                pytest.param(objective, [], True, True, id=f"{name}-absent"),
                pytest.param(
                    objective,
                    [sample(name, 0, server="collector")],
                    True, False, id=f"{name}-zero",
                ),
                pytest.param(
                    objective,
                    [
                        sample(name, 0, server="collector"),
                        sample(name, 1, server="worker"),
                    ],
                    False, False, id=f"{name}-summed-over-servers",
                ),
            )
        ),
        pytest.param("lease-stuck", [], True, True, id="lease-absent"),
        pytest.param(
            "lease-stuck", [sample("fleet_oldest_lease_age_seconds", 100)],
            True, True, id="lease-without-ttl",
        ),
        pytest.param(
            "lease-stuck",
            [
                sample("fleet_oldest_lease_age_seconds", 100),
                sample("fleet_lease_ttl_seconds", 0),
            ],
            True, True, id="lease-zero-ttl",
        ),
        pytest.param(
            "lease-stuck",
            [
                sample("fleet_oldest_lease_age_seconds", 30),
                sample("fleet_lease_ttl_seconds", 10),
            ],
            True, False, id="lease-age-at-three-ttls",
        ),
        pytest.param(
            "lease-stuck",
            [
                sample("fleet_oldest_lease_age_seconds", 30.5),
                sample("fleet_lease_ttl_seconds", 10),
            ],
            False, False, id="lease-age-past-three-ttls",
        ),
    ])
    def test_single_scrape_verdict(self, objective, scrape, ok, no_data):
        """Each objective over one scrape: absent or empty series read
        "no data" and pass, budgets are inclusive, histograms pool every
        label set and counters sum them."""
        results = {r.name: r for r in evaluate_slos(scrape)}
        result = results[objective]
        assert (result.ok, result.no_data) == (ok, no_data), result.detail
        assert result.status == ("ok" if ok else "BURNING")
        assert result.detail.startswith("no data") == no_data

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
from repro.obs.metrics import Sample, samples_named, sum_samples
from repro.obs.slo import DEFAULT_SLOS

GOLDEN = Path(__file__).parent / "golden" / "metrics.prom"


def build_demo_registry() -> MetricsRegistry:
    """The deterministic registry the golden exposition pins."""
    registry = MetricsRegistry()
    depth = registry.gauge("demo_depth", "Current queue depth.")
    depth.set(3)
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

    def test_histogram_timer_observes(self):
        histogram = MetricsRegistry().histogram("h", "x", buckets=(10.0,))
        with histogram.time():
            pass
        assert histogram.count == 1

    def test_concurrent_increments_do_not_lose_counts(self):
        counter = MetricsRegistry().counter("c_total", "x")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000


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

    def test_malformed_and_auth_and_restarts_burn(self):
        scrape = [
            sample("service_malformed_lines_total", 1, server="x"),
            sample("service_auth_failures_total", 1, server="x"),
            sample("pool_worker_restarts_total", 1),
        ]
        results = {r.name: r for r in evaluate_slos(scrape)}
        assert not results["zero-malformed-lines"].ok
        assert not results["zero-auth-failures"].ok
        assert not results["zero-worker-restarts"].ok
